package oostream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"oostream/internal/engine"
)

// restoreTargets are the compositions FuzzRestoreEngine restores into: the
// fuzzer picks one by index and supplies the checkpoint bytes.
var restoreTargets = []struct {
	name  string
	query string
	cfg   Config
	// drive is the stream whatever restored must take.
	drive []Event
}{
	{"unkeyed", "PATTERN SEQ(A a, B b) WITHIN 50", Config{K: 10}, restoreStream(100, 20)},
	{"keyed", "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 50", Config{K: 10}, restoreStream(100, 20)},
	{"negation", "PATTERN SEQ(A a, !(C c), B b) WITHIN 50", Config{K: 10}, restoreStream(100, 20)},
	{"adaptive", "PATTERN SEQ(A a, !(C c), B b) WHERE a.id = b.id WITHIN 50",
		Config{K: 10, Adaptive: Adaptive{Enabled: true, MinK: 2, Limits: Limits{MaxLag: 40}}}, restoreStream(100, 20)},
	// The levee, its buffer holding events, static and adaptive.
	{"kslack", "PATTERN SEQ(A a, !(C c), B b) WHERE a.id = b.id WITHIN 50", Config{Strategy: StrategyKSlack, K: 10}, restoreStream(100, 20)},
	{"kslack-adaptive", "PATTERN SEQ(A a, !(C c), B b) WHERE a.id = b.id WITHIN 50",
		Config{Strategy: StrategyKSlack, K: 10, Adaptive: Adaptive{Enabled: true, MinK: 2, Limits: Limits{MaxLag: 40, MaxBufferedEvents: 6}}}, restoreStream(100, 20)},
	// The kernel holding vulnerable matches, and the hybrid's record in front
	// of it.
	{"speculate", "PATTERN SEQ(A a, !(C c), B b) WHERE a.id = b.id WITHIN 50", Config{Strategy: StrategySpeculate, K: 10}, restoreStream(100, 20)},
	{"hybrid", "PATTERN SEQ(A a, !(C c), B b) WHERE a.id = b.id WITHIN 50", Config{Strategy: StrategyHybrid, K: 10}, restoreStream(100, 20)},
	// The query of the supervised and hybrid fixtures (fixtureQuery), whose
	// clocks read about 800 at the cut; the fixtures restore here.
	{"supervised-fixture", fixtureQuery, Config{K: 39}, restoreStream(800, 20)},
	{"kslack-fixture", fixtureQuery, Config{Strategy: StrategyKSlack, K: 39}, restoreStream(800, 20)},
	{"hybrid-fixture", fixtureQuery, Config{Strategy: StrategyHybrid, K: 39}, restoreStream(800, 20)},
	// Two positions of one type with no local predicate: one shared stack.
	{"shared", "PATTERN SEQ(A a, A b, !(C c), B d) WHERE a.id = b.id AND b.id = d.id AND a.id = c.id WITHIN 50", Config{K: 10}, restoreStream(100, 20)},
}

// restoreStream is the fixed stream a restored engine must take: A, C and B
// in turn over two ids drawn apart from the type (so that a keyed A meets a
// B of its id), every fourth event 7 ms late, timestamps continuing from
// `from`.
func restoreStream(from Time, n int) []Event {
	events := make([]Event, n)
	for i := range events {
		ts := from + Time(3*i)
		if i%4 == 3 {
			ts -= 7
		}
		events[i] = NewEvent([]string{"A", "C", "B"}[i%3], ts, Attrs{"id": Int(int64(i / 3 % 2))})
		events[i].Seq = Seq(1000 + int(from) + i)
	}
	return events
}

// pendingCheckpoint is the checkpoint of restoreTargets' negation query
// holding the given pending bindings (JSON objects), in the order given.
func pendingCheckpoint(pending ...string) []byte {
	q := MustCompile("PATTERN SEQ(A a, !(C c), B b) WITHIN 50", nil)
	return sealRecord(`{"planSource":"` + q.Source() + `","k":10,"latePolicy":1,"purgeEvery":64,` +
		`"clock":100,"started":true,"arrival":1,"enumerated":1,"since":1,"stacks":[[],[]],"negStores":[[]],` +
		`"pending":[` + strings.Join(pending, ",") + `]}`)
}

// sealRecord is a checkpoint of one section, record.
func sealRecord(record string) []byte {
	blob, err := engine.Seal(func(w io.Writer) error { return engine.WriteSection(w, json.RawMessage(record)) })
	if err != nil {
		panic(err)
	}
	return blob
}

// shortPendingCheckpoint's one pending binding holds `events` where the
// pattern has two positions.
func shortPendingCheckpoint(events string) []byte {
	return pendingCheckpoint(`{"events":` + events + `,"sealTS":95,"madeSeq":1}`)
}

// pendingBinding is a well-formed pending binding of that query sealing at
// its B's timestamp.
func pendingBinding(aTS, bTS Time, madeSeq int) string {
	return fmt.Sprintf(`{"events":[{"type":"A","ts":%d,"seq":%d},{"type":"B","ts":%d,"seq":%d}],"sealTS":%d,"madeSeq":%d}`,
		aTS, 2*madeSeq, bTS, 2*madeSeq+1, bTS, madeSeq)
}

// TestRestoreEngineRejectsShortPending: a checkpoint whose pending binding is
// shorter than the pattern (or empty) is refused at restore. It used to be
// accepted and panic later, in Process, when the binding sealed and its
// negation gap was read off a position it does not have.
func TestRestoreEngineRejectsShortPending(t *testing.T) {
	q := MustCompile(restoreTargets[2].query, nil)
	for _, events := range []string{`[{"type":"A","ts":90,"seq":1}]`, `[]`} {
		en, err := RestoreEngine(q, restoreTargets[2].cfg, bytes.NewReader(shortPendingCheckpoint(events)))
		if err == nil || !strings.Contains(err.Error(), "pending binding") {
			t.Errorf("pending events %s: restored %v with error %v, want a pending-binding shape error", events, en, err)
		}
	}
}

// FuzzRestoreEngine feeds RestoreEngine hostile checkpoint bytes. Error or
// equivalent state, never a panic, never silent divergence: whatever
// restores must take a fixed 20-event stream, a heartbeat and a flush, and
// must produce the same output after one more checkpoint-and-restore in front
// of that stream.
func FuzzRestoreEngine(f *testing.F) {
	// Real checkpoints written by this commit, two per target, taken after
	// prefixes of the stream (the negation targets hold pending bindings).
	// At least one keyed target's must hold a partial match that the
	// stream then completes, an A from before the cut joined to a later B.
	queries, carried := make([]*Query, len(restoreTargets)), false
	for i, tgt := range restoreTargets {
		queries[i] = MustCompile(tgt.query, nil)
		for _, n := range []int{6, 12} {
			en := MustNewEngine(queries[i], tgt.cfg)
			for _, e := range tgt.drive[:n] {
				e.TS, e.Seq = e.TS-60, e.Seq-60 // the stream as it was 60 ms earlier
				en.Process(e)
			}
			var buf bytes.Buffer
			if err := en.Checkpoint(&buf); err != nil {
				f.Fatalf("%s: %v", tgt.name, err)
			}
			f.Add(uint8(i), buf.Bytes())
			restored, err := RestoreEngine(queries[i], tgt.cfg, &buf)
			if err != nil {
				f.Fatalf("%s: %v", tgt.name, err)
			}
			for _, m := range restored.ProcessAll(tgt.drive) {
				carried = carried || strings.Contains(tgt.query, "a.id = b.id") && m.Events[0].Seq < tgt.drive[0].Seq
			}
		}
	}
	if !carried {
		f.Fatal("no keyed target's seed checkpoint holds a partial match that the stream completes")
	}
	f.Add(uint8(2), shortPendingCheckpoint(`[{"type":"A","ts":90,"seq":1}]`))
	f.Add(uint8(2), shortPendingCheckpoint(`[]`))
	// pending in no order at all (a heap's array, or worse), and several
	// bindings on one sealTS: restore sorts, file order among equals.
	f.Add(uint8(2), pendingCheckpoint(pendingBinding(60, 99, 1), pendingBinding(61, 93, 2),
		pendingBinding(62, 97, 3), pendingBinding(63, 91, 4), pendingBinding(64, 95, 5)))
	f.Add(uint8(2), pendingCheckpoint(pendingBinding(70, 96, 1), pendingBinding(71, 92, 2),
		pendingBinding(72, 96, 3), pendingBinding(73, 92, 4), pendingBinding(74, 96, 5)))
	// The fixtures, each to the target of its writer: a supervised
	// directory's checkpoint as the store wrote it, and less the store's
	// record, which leaves what the engine wrote.
	target := func(name string) uint8 {
		for i, tgt := range restoreTargets {
			if tgt.name == name {
				return uint8(i)
			}
		}
		panic(name)
	}
	f.Add(target("hybrid-fixture"), fixtureFile(f, "testdata/hybrid/hybrid.ckpt"))
	for _, dir := range []string{"supervised", "kslack"} {
		names, _ := filepath.Glob(filepath.Join("testdata", dir, "dir", "*.ck"))
		for _, name := range names {
			data := fixtureFile(f, name)
			f.Add(target(dir+"-fixture"), data)
			f.Add(target(dir+"-fixture"), sealSections(f, checkpointSections(f, data)[1:]))
		}
	}

	f.Fuzz(func(t *testing.T, target uint8, data []byte) {
		i := int(target) % len(restoreTargets)
		tgt, q := restoreTargets[i], queries[i]
		first, err := RestoreEngine(q, tgt.cfg, bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := first.Checkpoint(&again); err != nil {
			t.Fatalf("%s: a restored engine cannot checkpoint: %v", tgt.name, err)
		}
		second, err := RestoreEngine(q, tgt.cfg, &again)
		if err != nil {
			t.Fatalf("%s: a restored engine's own checkpoint does not restore: %v", tgt.name, err)
		}
		drive := func(en *Engine) string {
			var out []Match
			for _, e := range tgt.drive {
				out = append(out, en.Process(e)...)
			}
			out = append(out, en.Advance(tgt.drive[0].TS+1000)...)
			out = append(out, en.Flush()...)
			return fmt.Sprint(out)
		}
		if a, b := drive(first), drive(second); a != b {
			t.Fatalf("%s: output diverges after one more checkpoint and restore\n first: %s\nsecond: %s", tgt.name, a, b)
		}
	})
}

// aggRestoreTargets are the aggregate compositions FuzzRestoreAgg restores
// into: sealed, ungrouped and grouped, and previewing.
var aggRestoreTargets = []struct {
	name  string
	query string
	cfg   Config
}{
	{"ungrouped", "AGGREGATE MAX(b.id) OVER SEQ(A a, B b) WITHIN 50 SLIDE 5", Config{K: 10}},
	{"grouped", "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WHERE a.id = b.id WITHIN 50 SLIDE 10 GROUP BY a.id", Config{K: 10}},
	{"trailing-negation", "AGGREGATE SUM(a.id) OVER SEQ(A a, B b, !(C c)) WITHIN 30 SLIDE 10 GROUP BY b.id", Config{K: 10}},
	{"speculative", "AGGREGATE SUM(b.id) OVER SEQ(A a, !(C c), B b) WHERE a.id = b.id WITHIN 30 SLIDE 5 GROUP BY a.id", Config{Strategy: StrategySpeculate, K: 10}},
	{"kslack", "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 50 SLIDE 10 GROUP BY b.id", Config{Strategy: StrategyKSlack, K: 10}},
	{"hybrid", "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 50 SLIDE 10 GROUP BY b.id", Config{Strategy: StrategyHybrid, K: 10}},
}

// reseal recomputes the CRC of a checkpoint envelope whose declared payload
// length fits the bytes present, so that a mutated payload reaches the
// decoders behind the checksum; anything else is returned as is.
func reseal(data []byte) []byte {
	if len(data) < 15 || string(data[:6]) != "OOSECT" {
		return data
	}
	size := binary.LittleEndian.Uint32(data[7:11])
	if uint64(size) > uint64(len(data)-15) {
		return data
	}
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[11:15], crc32.ChecksumIEEE(out[15:15+size]))
	return out
}

// FuzzRestoreAgg is FuzzRestoreEngine for the aggregation operator's
// section in front of the kernel's: error or equivalent state after one more
// checkpoint-and-restore, never a panic. Each input is tried as given and
// with its checksum made good.
func FuzzRestoreAgg(f *testing.F) {
	queries := make([]*Query, len(aggRestoreTargets))
	for i, tgt := range aggRestoreTargets {
		queries[i] = MustCompile(tgt.query, nil)
		en := MustNewEngine(queries[i], tgt.cfg)
		for _, e := range restoreStream(40, 24) {
			en.Process(e)
		}
		var buf bytes.Buffer
		if err := en.Checkpoint(&buf); err != nil {
			f.Fatalf("%s: %v", tgt.name, err)
		}
		f.Add(uint8(i), buf.Bytes())
	}
	// A declared payload of 4 GiB over a few bytes: refused without
	// allocating it.
	f.Add(uint8(0), append([]byte("OOSECT\x01\xff\xff\xff\xff\x00\x00\x00\x00"), "{}"...))
	// A group carrying its own emitted frontier: refused.
	f.Add(uint8(0), aggWithGroupFrontier(f))

	f.Fuzz(func(t *testing.T, target uint8, data []byte) {
		i := int(target) % len(aggRestoreTargets)
		tgt, q := aggRestoreTargets[i], queries[i]
		for _, data := range [][]byte{data, reseal(data)} {
			first, err := RestoreEngine(q, tgt.cfg, bytes.NewReader(data))
			if err != nil {
				continue
			}
			var again bytes.Buffer
			if err := first.Checkpoint(&again); err != nil {
				t.Fatalf("%s: a restored engine cannot checkpoint: %v", tgt.name, err)
			}
			second, err := RestoreEngine(q, tgt.cfg, &again)
			if err != nil {
				t.Fatalf("%s: a restored engine's own checkpoint does not restore: %v", tgt.name, err)
			}
			drive := func(en *Engine) string {
				var out []Match
				for _, e := range restoreStream(100, 30) {
					out = append(out, en.Process(e)...)
				}
				out = append(out, en.Advance(1000)...)
				out = append(out, en.Flush()...)
				return fmt.Sprint(out)
			}
			if a, b := drive(first), drive(second); a != b {
				t.Fatalf("%s: output diverges after one more checkpoint and restore\n first: %s\nsecond: %s", tgt.name, a, b)
			}
		}
	})
}

// setRestoreQueries are the two queries of the sets FuzzRestoreQuerySet
// restores: a keyed sequence and a trailing negation, whose match waits for
// its window to close, so a checkpoint taken mid-stream holds it pending.
var setRestoreQueries = [][2]string{
	{"seq", "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 50"},
	{"neg", "PATTERN SEQ(A a, B b, !(C c)) WITHIN 50"},
}

var setRestoreConfig = QuerySetConfig{K: 10}

// setCheckpoint is the checkpoint of a set of setRestoreQueries that took
// the first n events of a restoreStream that starts at from.
func setCheckpoint(tb testing.TB, from Time, n int) []byte {
	tb.Helper()
	qs := MustNewQuerySet(setRestoreConfig)
	for _, rq := range setRestoreQueries {
		if err := qs.Register(rq[0], MustCompile(rq[1], nil)); err != nil {
			tb.Fatal(err)
		}
	}
	for _, e := range restoreStream(from, n) {
		qs.Process(e)
	}
	var buf bytes.Buffer
	if err := qs.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// forgeSetCheckpoint returns a set checkpoint after edit has had its way
// with the list of its queries' namespaces (in the set's section, after the
// levee's).
func forgeSetCheckpoint(tb testing.TB, data []byte, edit func(queries []any) []any) []byte {
	tb.Helper()
	secs := checkpointSections(tb, data)
	var set map[string]any
	if err := json.Unmarshal(secs[1], &set); err != nil {
		tb.Fatal(err)
	}
	set["queries"] = edit(set["queries"].([]any))
	var err error
	if secs[1], err = json.Marshal(set); err != nil {
		tb.Fatal(err)
	}
	return sealSections(tb, secs)
}

// checkpointSections returns the sections of a checkpoint, outermost first.
func checkpointSections(tb testing.TB, data []byte) []json.RawMessage {
	tb.Helper()
	s, err := engine.Open(bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	var secs []json.RawMessage
	for s.More() {
		var raw json.RawMessage
		if err := s.Next("any", "", &raw); err != nil {
			tb.Fatal(err)
		}
		secs = append(secs, raw)
	}
	return secs
}

// sealSections writes sections back into one checkpoint.
func sealSections(tb testing.TB, secs []json.RawMessage) []byte {
	tb.Helper()
	blob, err := engine.Seal(func(w io.Writer) error {
		for _, sec := range secs {
			if err := engine.WriteSection(w, sec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// hostileSetIDs are two forgeries of a set checkpoint that Register would
// never have let through: a query id listed twice (restored, both engines
// were dispatched and each match emitted twice) and an empty id.
func hostileSetIDs(tb testing.TB) []struct {
	id   string
	data []byte
} {
	real := setCheckpoint(tb, 40, 12)
	return []struct {
		id   string
		data []byte
	}{
		{`"seq"`, forgeSetCheckpoint(tb, real, func(qs []any) []any { return append(qs, qs[0]) })},
		{`""`, forgeSetCheckpoint(tb, real, func(qs []any) []any {
			qs[1].(map[string]any)["id"] = ""
			return qs
		})},
	}
}

// TestRestoreQuerySetRefusesHostileIDs: a checkpoint listing a query id
// twice, or an empty one, is refused with an error naming the id.
func TestRestoreQuerySetRefusesHostileIDs(t *testing.T) {
	for _, h := range hostileSetIDs(t) {
		qs, err := RestoreQuerySet(setRestoreConfig, bytes.NewReader(h.data))
		if err == nil || !strings.Contains(err.Error(), "query id "+h.id) {
			t.Errorf("id %s: restored %v with error %v, want one naming the id", h.id, qs, err)
		}
	}
}

// FuzzRestoreQuerySet is FuzzRestoreEngine for the multi-query set's v2
// checkpoint: error or equivalent state, never a panic. Whatever restores
// must take a fixed 20-event stream, a heartbeat and a flush, and produce the
// same output after one more checkpoint-and-restore in front of that stream.
func FuzzRestoreQuerySet(f *testing.F) {
	// Real checkpoints of both queries, the negation's match pending and
	// events held in the shared buffer, and the two forgeries.
	f.Add(setCheckpoint(f, 40, 12))
	f.Add(setCheckpoint(f, 60, 20))
	for _, h := range hostileSetIDs(f) {
		f.Add(h.data)
	}
	// The set fixture (written under another K: refused), what this version
	// writes, and the supervised set's newest less the store's record, the
	// set's as the set wrote it.
	f.Add(fixtureFile(f, "testdata/queryset/set.ckpt"))
	written := writtenCheckpoints(f)
	for _, data := range written {
		f.Add(data)
	}
	f.Add(sealSections(f, checkpointSections(f, written[len(written)-1])[1:]))
	drive := restoreStream(100, 20)
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := RestoreQuerySet(setRestoreConfig, bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := first.Checkpoint(&again); err != nil {
			t.Fatalf("a restored set cannot checkpoint: %v", err)
		}
		second, err := RestoreQuerySet(setRestoreConfig, &again)
		if err != nil {
			t.Fatalf("a restored set's own checkpoint does not restore: %v", err)
		}
		run := func(qs *QuerySet) string {
			var out []Match
			for _, e := range drive {
				out = append(out, qs.Process(e)...)
			}
			out = append(out, qs.Advance(drive[0].TS+1000)...)
			out = append(out, qs.Flush()...)
			if err := qs.Err(); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(out)
		}
		if a, b := run(first), run(second); a != b {
			t.Fatalf("output diverges after one more checkpoint and restore\n first: %s\nsecond: %s", a, b)
		}
	})
}
