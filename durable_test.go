package oostream

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/trace"
)

// layerOf names the layer whose record sec is, by a member only that
// layer's record has.
func layerOf(t *testing.T, sec json.RawMessage) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(sec, &m); err != nil {
		t.Fatalf("section %.60s: %v", sec, err)
	}
	for _, blob := range []string{"engine", "inner", "kernel", "parts"} {
		if _, ok := m[blob]; ok {
			t.Errorf("section %.60s nests a layer in %q", sec, blob)
		}
	}
	for _, l := range []struct{ member, layer string }{
		{"walSeg", "store"}, {"lateness", "aggregate"}, {"maxSeen", "levee"},
		{"minDwell", "hybrid"}, {"queries", "set"}, {"planSource", "kernel"},
	} {
		if _, ok := m[l.member]; ok {
			return l.layer
		}
	}
	return "unknown"
}

// checkOneEnvelope holds a checkpoint to one envelope (one magic, at the
// start; none of the older layouts' inside) around the named sections.
func checkOneEnvelope(t *testing.T, name string, data []byte, want []string) {
	t.Helper()
	if !bytes.HasPrefix(data, []byte("OOSECT")) {
		t.Errorf("%s: checkpoint begins %q", name, data[:min(len(data), 6)])
	}
	for magic, n := range map[string]int{"OOSECT": 1, "OORCPT": 0, "OOCKPT": 0, "OOAGGT": 0} {
		if got := bytes.Count(data, []byte(magic)); got != n {
			t.Errorf("%s: %d %s magics, want %d", name, got, magic, n)
		}
	}
	var got []string
	for _, sec := range checkpointSections(t, data) {
		got = append(got, layerOf(t, sec))
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: sections %v, want %v", name, got, want)
	}
}

// newestCheckpoint returns the bytes of the newest checkpoint file in dir.
func newestCheckpoint(t testing.TB, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoint in %s: %v", dir, err)
	}
	slices.Sort(names)
	data, err := os.ReadFile(names[len(names)-1])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOneEnvelope: every strategy, with and without aggregation, in memory
// and supervised, and a supervised QuerySet write one envelope around flat
// sections, outermost layer first, none nesting another.
func TestOneEnvelope(t *testing.T) {
	events := restoreStream(100, 40)
	for _, q := range lateQueries(t, "50") {
		for _, s := range Strategies() {
			cfg := Config{Strategy: s, K: 10}
			want := []string{"kernel"}
			switch s {
			case StrategyKSlack:
				want = append([]string{"levee"}, want...)
			case StrategyHybrid:
				want = append([]string{"hybrid"}, want...)
			}
			if q.HasAggregate() {
				want = append([]string{"aggregate"}, want...)
			}
			name := fmt.Sprintf("%s aggregate=%v", s, q.HasAggregate())

			mem := MustNewEngine(q, cfg)
			for _, e := range events {
				mem.Process(e)
			}
			var buf bytes.Buffer
			if err := mem.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			checkOneEnvelope(t, name+" in memory", buf.Bytes(), want)

			dir := t.TempDir()
			sup, err := NewSupervisedEngine(q, cfg, SupervisorConfig{Dir: dir, CheckpointEvery: 16, DisableFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sup.Start(); err != nil {
				t.Fatal(err)
			}
			sup.ProcessAll(events)
			sup.Close()
			checkOneEnvelope(t, name+" supervised", newestCheckpoint(t, dir), append([]string{"store"}, want...))
		}
	}

	dir := t.TempDir()
	qs, err := NewSupervisedQuerySet(QuerySetConfig{K: 10}, SupervisorConfig{Dir: dir, CheckpointEvery: 16, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{setRestoreQueries[0][1], setRestoreQueries[1][1], "PATTERN SEQ(A a, C c) WITHIN 50"} {
		if err := qs.Register(fmt.Sprint("q", i), MustCompile(src, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := qs.Start(); err != nil {
		t.Fatal(err)
	}
	qs.ProcessAll(events)
	qs.Close()
	checkOneEnvelope(t, "supervised QuerySet", newestCheckpoint(t, dir), []string{"store", "levee", "set", "kernel", "kernel", "kernel"})
}

// The files under testdata/hybrid were written at 2999302 from
// fixtureQuery over testdata/supervised's stream.trace, under
// Config{Strategy: StrategyHybrid, K: 39}:
//
//	hybrid.ckpt  the checkpoint after 150 events
//	hybrid.rest  what the first version of that checkpoint, the last that
//	             nested the kernel's record in the hybrid's as base64,
//	             emitted after it, one match a line, for the rest of the
//	             stream and a flush
//
// testdata/kslack holds, as testdata/supervised does, a supervised
// directory of a levee at K = 39 killed after 150 events, with what it
// delivered before the kill and on resuming.
//
// TestRestoreHorizonFixtures: both restore and finish the stream as the
// writing version and the uninterrupted run do; every checkpoint under
// testdata opens, and is refused with a byte after its payload.
func TestRestoreHorizonFixtures(t *testing.T) {
	t.Run("kslack", func(t *testing.T) {
		resumeFixture(t, "kslack", Config{Strategy: StrategyKSlack, K: 39})
	})
	t.Run("hybrid", func(t *testing.T) {
		const cut = 150
		q := MustCompile(fixtureQuery, nil)
		cfg := Config{Strategy: StrategyHybrid, K: 39}
		events, err := trace.NewReader(bytes.NewReader(fixtureFile(t, "testdata/supervised/stream.trace"))).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		want := string(fixtureFile(t, "testdata/hybrid/hybrid.rest"))
		continuation := func(ckpt []byte) (string, []byte) {
			en, err := RestoreEngine(q, cfg, bytes.NewReader(ckpt))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := en.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			for _, m := range en.ProcessAll(events[cut:]) {
				fmt.Fprintf(&out, "%s\n", m)
			}
			return out.String(), again.Bytes()
		}
		ckpt := fixtureFile(t, "testdata/hybrid/hybrid.ckpt")
		got, again := continuation(ckpt)
		if got != want {
			t.Errorf("the restored hybrid continues differently from the writer\n got:\n%s\nwant:\n%s", got, want)
		}
		if !bytes.Equal(again, ckpt) {
			t.Error("the restored hybrid writes another checkpoint than the one it restored")
		}
	})
	t.Run("trailing", func(t *testing.T) {
		names := fixtureCheckpoints(t)
		if len(names) < 6 {
			t.Fatalf("%d checkpoint fixtures: %v", len(names), names)
		}
		for _, name := range names {
			data := fixtureFile(t, name)
			if _, err := engine.Open(bytes.NewReader(data)); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if _, err := engine.Open(bytes.NewReader(append(data, '\n'))); err == nil || !strings.Contains(err.Error(), "after its payload") {
				t.Errorf("%s with a byte after its payload: %v", name, err)
			}
		}
	})
}

// fixtureCheckpoints are the checkpoint files under testdata: the
// facade's, the supervised directories' and the kernel's.
func fixtureCheckpoints(tb testing.TB) []string {
	tb.Helper()
	var names []string
	for _, pattern := range []string{"testdata/*/*.ckpt", "testdata/*/dir/*.ck", "internal/core/testdata/*.ckpt"} {
		more, err := filepath.Glob(pattern)
		if err != nil {
			tb.Fatal(err)
		}
		names = append(names, more...)
	}
	return names
}

// fixtureFile reads a file under testdata.
func fixtureFile(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// envelope frames payload behind magic and version as every envelope this
// module has written does: length and CRC32 (IEEE), little-endian.
func envelope(magic string, version byte, payload string) []byte {
	out := append([]byte(magic), version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE([]byte(payload)))
	return append(out, payload...)
}

// aggWithGroupFrontier is an aggregate's checkpoint whose first group
// carries its own emitted frontier ("sealed"), as a version that merged
// partitioned checkpoints wrote after such a restore.
func aggWithGroupFrontier(tb testing.TB) []byte {
	tb.Helper()
	en := MustNewEngine(MustCompile(aggRestoreTargets[0].query, nil), aggRestoreTargets[0].cfg)
	for _, e := range restoreStream(40, 24) {
		en.Process(e)
	}
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	secs := checkpointSections(tb, buf.Bytes())
	var rec map[string]any
	if err := json.Unmarshal(secs[0], &rec); err != nil {
		tb.Fatal(err)
	}
	groups := rec["groups"].([]any)
	if len(groups) == 0 {
		tb.Fatal("the aggregate's checkpoint holds no group")
	}
	groups[0].(map[string]any)["sealed"] = 100
	var err error
	if secs[0], err = json.Marshal(rec); err != nil {
		tb.Fatal(err)
	}
	return sealSections(tb, secs)
}

// olderLayouts are a kernel record of q as the versions before the one
// envelope wrote it, bare, and a supervised store's header nesting it in
// the older kernel envelope, as base64.
func olderLayouts(q *Query) (kernel, store string) {
	kernel = `{"version":1,"planSource":"` + q.Source() + `","k":10,"latePolicy":1,"purgeEvery":64,` +
		`"clock":100,"started":true,"arrival":1,"enumerated":1,"since":1,"stacks":[[],[]],"negStores":[[]],"pending":null}`
	store = `{"matches":0,"ingested":0,"walSeg":1,"meta":{},"engine":"` + base64.StdEncoding.EncodeToString(envelope("OOCKPT", 2, kernel)) + `"}`
	return kernel, store
}

// TestOpenRefusesOlderLayouts: every layout older than the one envelope is
// refused with the one error that names the last commit reading it. The
// aggregate's record of a merged restore is refused with it too. The
// envelope at another version byte is damage, as a flipped bit there is,
// and refused as such.
func TestOpenRefusesOlderLayouts(t *testing.T) {
	q := MustCompile(restoreTargets[2].query, nil)
	kernel, store := olderLayouts(q)
	part := base64.StdEncoding.EncodeToString([]byte(kernel))
	agg := MustCompile(aggRestoreTargets[0].query, nil)
	for _, tc := range []struct {
		name    string
		data    []byte
		q       *Query
		cfg     Config
		horizon bool
	}{
		{"store envelope", envelope("OORCPT", 1, store), q, restoreTargets[2].cfg, true},
		{"kernel envelope", envelope("OOCKPT", 2, kernel), q, restoreTargets[2].cfg, true},
		{"aggregate envelope", append(envelope("OOAGGT", 1, `{"lateness":10,"groups":[]}`), envelope("OOCKPT", 2, kernel)...), q, restoreTargets[2].cfg, true},
		{"bare JSON", []byte(kernel), q, restoreTargets[2].cfg, true},
		{"router envelope", []byte(`{"attr":"id","shards":2,"routeErrors":0,"parts":["` + part + `","` + part + `"]}`), q, restoreTargets[2].cfg, true},
		{"aggregate group frontier", aggWithGroupFrontier(t), agg, aggRestoreTargets[0].cfg, true},
		{"envelope version 2", envelope("OOSECT", 2, kernel+"\n"), q, restoreTargets[2].cfg, false},
		{"envelope version 0", envelope("OOSECT", 0, kernel+"\n"), q, restoreTargets[2].cfg, false},
	} {
		en, err := RestoreEngine(tc.q, tc.cfg, bytes.NewReader(tc.data))
		switch {
		case tc.horizon && (!errors.Is(err, engine.ErrHorizon) || !strings.Contains(err.Error(), "2999302")):
			t.Errorf("%s: restored %v with error %v, want the horizon error", tc.name, en, err)
		case !tc.horizon && (err == nil || errors.Is(err, engine.ErrHorizon) || !strings.Contains(err.Error(), "header")):
			t.Errorf("%s: restored %v with error %v, want a damaged header", tc.name, en, err)
		}
	}
}

// TestSupervisedRefusesOlderLayouts: a supervised directory whose newest
// readable checkpoint is in an older layout does not start, and keeps every
// file. Skipped as damage, it would resume from what the log kept alone,
// and the next checkpoint's pruning would delete the files a build of
// 2999302 can still resume. A damaged newest checkpoint in front of it does
// not hide it.
func TestSupervisedRefusesOlderLayouts(t *testing.T) {
	q := MustCompile(fixtureQuery, nil)
	_, store := olderLayouts(q)
	events, err := trace.NewReader(bytes.NewReader(fixtureFile(t, "testdata/supervised/stream.trace"))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir("testdata/supervised/dir")
	if err != nil {
		t.Fatal(err)
	}
	for _, damagedNewest := range []bool{false, true} {
		dir := t.TempDir()
		before := map[string]string{}
		for _, f := range files {
			data := fixtureFile(t, filepath.Join("testdata/supervised/dir", f.Name()))
			if strings.HasSuffix(f.Name(), ".ck") {
				data = envelope("OORCPT", 1, store)
			}
			before[f.Name()] = string(data)
		}
		if damagedNewest {
			before["ckpt-0000000000000002.ck"] = "junk"
		}
		for name, data := range before {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		sup, err := NewSupervisedEngine(q, Config{K: 39}, SupervisorConfig{Dir: dir, CheckpointEvery: 16, DisableFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sup.Start(); !errors.Is(err, engine.ErrHorizon) || !strings.Contains(err.Error(), "2999302") {
			t.Errorf("damaged newest %v: started with error %v, want the horizon error", damagedNewest, err)
		}
		sup.ProcessAll(events)
		sup.Close()
		after := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range entries {
			after[f.Name()] = string(fixtureFile(t, filepath.Join(dir, f.Name())))
		}
		if !maps.Equal(after, before) {
			t.Errorf("damaged newest %v: the refused directory changed: %d files before, %d after", damagedNewest, len(before), len(after))
		}
	}
}

// TestCheckpointRestoresOnlyAsWritten: a checkpoint restores only under the
// strategy and the facade object that wrote it. A layer refuses a section
// that is not its record, and sections left once the configured engine has
// restored are refused, in memory and supervised.
func TestCheckpointRestoresOnlyAsWritten(t *testing.T) {
	q := MustCompile(setRestoreQueries[0][1], nil)
	events := restoreStream(100, 40)
	written := func(s Strategy) []byte {
		en := MustNewEngine(q, Config{Strategy: s, K: 10})
		en.ProcessAll(events)
		var buf bytes.Buffer
		if err := en.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := RestoreQuerySet(QuerySetConfig{K: 10}, bytes.NewReader(written(StrategyKSlack))); err == nil || !strings.Contains(err.Error(), "not the query set's record") {
		t.Errorf("a QuerySet restored from a kslack engine's checkpoint: %v", err)
	}
	if _, err := RestoreEngine(q, Config{Strategy: StrategyKSlack}, bytes.NewReader(written(StrategyHybrid))); err == nil || !strings.Contains(err.Error(), "not the levee's record") {
		t.Errorf("a hybrid checkpoint restored under kslack at K=0: %v", err)
	}

	const extra = "no layer for"
	native := checkpointSections(t, written(StrategyNative))
	twice := sealSections(t, append(native, native...))
	if _, err := RestoreEngine(q, Config{Strategy: StrategyNative, K: 10}, bytes.NewReader(twice)); err == nil || !strings.Contains(err.Error(), extra) {
		t.Errorf("a native checkpoint with a second kernel record restored: %v", err)
	}
	set := checkpointSections(t, setCheckpoint(t, 100, 40))
	if _, err := RestoreQuerySet(setRestoreConfig, bytes.NewReader(sealSections(t, append(set, set[len(set)-1])))); err == nil || !strings.Contains(err.Error(), extra) {
		t.Errorf("a set checkpoint with a record past its queries' restored: %v", err)
	}

	dir := t.TempDir()
	sc := SupervisorConfig{Dir: dir, CheckpointEvery: 16, DisableFsync: true}
	sup, err := NewSupervisedEngine(q, Config{Strategy: StrategyNative, K: 10}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	sup.ProcessAll(events)
	sup.Kill()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	secs := checkpointSections(t, newestCheckpoint(t, dir))
	if err := os.WriteFile(names[len(names)-1], sealSections(t, append(secs, secs[len(secs)-1])), 0o644); err != nil {
		t.Fatal(err)
	}
	sup, err = NewSupervisedEngine(q, Config{Strategy: StrategyNative, K: 10}, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()
	if _, err := sup.Start(); err == nil || !strings.Contains(err.Error(), extra) {
		t.Errorf("a supervised checkpoint with a second kernel record resumed: %v", err)
	}
}

// TestSupervisedNaNRecovers: a NaN is durable. A supervised engine admits
// events carrying one, checkpoints them (in the kernel's stacks and, for an
// aggregate, in MAX's partials), is killed, and recovers to deliver, with
// what it delivered before the kill, exactly what the in-memory engine
// delivers over the stream.
func TestSupervisedNaNRecovers(t *testing.T) {
	var events []Event
	for i := 0; i < 60; i++ {
		v := Float(float64(i))
		if i%5 == 2 {
			v = Float(math.NaN())
		}
		events = append(events, NewEvent([]string{"A", "B"}[i%2], Time(3*i), Attrs{"id": Int(int64(i % 3)), "v": v}))
	}
	events = seqd(events...)
	for _, src := range []string{
		"PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 30",
		"AGGREGATE MAX(a.v) OVER SEQ(A a, B b) WHERE a.id = b.id WITHIN 30 SLIDE 10",
	} {
		q := MustCompile(src, nil)
		for _, s := range Strategies() {
			cfg := Config{Strategy: s, K: 10}
			want := fmt.Sprint(MustNewEngine(q, cfg).ProcessAll(events))
			dir := t.TempDir()
			open := func() *Engine {
				en, err := NewSupervisedEngine(q, cfg, SupervisorConfig{Dir: dir, CheckpointEvery: 8, DisableFsync: true})
				if err != nil {
					t.Fatal(err)
				}
				return en
			}
			en := open()
			got, err := en.Start()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events[:37] {
				got = append(got, en.Process(e)...)
			}
			en.Kill()
			en = open()
			ms, err := en.Start()
			if err != nil {
				t.Fatalf("%s %s: recover: %v", src, s, err)
			}
			got = append(got, ms...)
			got = append(got, en.ProcessAll(events[37:])...)
			if err := en.Err(); err != nil {
				t.Fatal(err)
			}
			en.Close()
			if !strings.Contains(want, "NaN") {
				t.Fatalf("%s %s: no NaN reaches the output: %s", src, s, want)
			}
			if fmt.Sprint(got) != want {
				t.Errorf("%s %s: recovered delivery\n%v\nin memory\n%s", src, s, got, want)
			}
		}
	}
}

// writtenCheckpoints are checkpoints this version writes: every strategy's
// over a negation, an aggregate's, a set's, and a supervised engine's and a
// supervised set's newest, as their stores wrote them.
func writtenCheckpoints(tb testing.TB) [][]byte {
	tb.Helper()
	events := restoreStream(100, 40)
	var out [][]byte
	write := func(en *Engine) {
		for _, e := range events {
			en.Process(e)
		}
		var buf bytes.Buffer
		if err := en.Checkpoint(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	for _, s := range Strategies() {
		write(MustNewEngine(MustCompile(fixtureQuery, nil), Config{Strategy: s, K: 39}))
	}
	write(MustNewEngine(MustCompile(aggRestoreTargets[0].query, nil), aggRestoreTargets[0].cfg))
	out = append(out, setCheckpoint(tb, 100, 40))
	sc := SupervisorConfig{Dir: tb.TempDir(), CheckpointEvery: 16, DisableFsync: true}
	sup, err := NewSupervisedEngine(MustCompile(fixtureQuery, nil), Config{K: 39}, sc)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sup.Start(); err != nil {
		tb.Fatal(err)
	}
	for _, e := range events {
		sup.Process(e)
	}
	sup.Kill()
	out = append(out, newestCheckpoint(tb, sc.Dir))
	sc.Dir = tb.TempDir()
	qs, err := NewSupervisedQuerySet(setRestoreConfig, sc)
	if err != nil {
		tb.Fatal(err)
	}
	for _, rq := range setRestoreQueries {
		if err := qs.Register(rq[0], MustCompile(rq[1], nil)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := qs.Start(); err != nil {
		tb.Fatal(err)
	}
	for _, e := range events {
		qs.Process(e)
	}
	qs.Kill()
	return append(out, newestCheckpoint(tb, sc.Dir))
}

// FuzzOpenCheckpoint feeds arbitrary bytes to engine.Open and to
// RestoreEngine and RestoreQuerySet: an error or an engine, never a panic.
// It is seeded with every checkpoint under testdata and the ones
// writtenCheckpoints writes, each for every target.
func FuzzOpenCheckpoint(f *testing.F) {
	targets := []struct {
		query string
		cfg   Config
	}{
		{fixtureQuery, Config{K: 39}},
		{fixtureQuery, Config{Strategy: StrategySpeculate, K: 39}},
		{fixtureQuery, Config{Strategy: StrategyHybrid, K: 39}},
		{fixtureQuery, Config{Strategy: StrategyKSlack, K: 39}},
		{aggRestoreTargets[0].query, aggRestoreTargets[0].cfg},
		{"PATTERN SEQ(A a, !(N n), B b) WITHIN 100", Config{K: 50}},
	}
	queries := make([]*Query, len(targets))
	for i, tgt := range targets {
		queries[i] = MustCompile(tgt.query, nil)
	}
	seeds := writtenCheckpoints(f)
	for _, name := range fixtureCheckpoints(f) {
		seeds = append(seeds, fixtureFile(f, name))
	}
	for _, data := range seeds {
		for i := range len(targets) + 1 {
			f.Add(uint8(i), data)
		}
	}
	f.Fuzz(func(t *testing.T, target uint8, data []byte) {
		if s, err := engine.Open(bytes.NewReader(data)); err == nil {
			for s.More() {
				var raw json.RawMessage
				if s.Next("any", "", &raw) != nil {
					break
				}
			}
		}
		i := int(target) % (len(targets) + 1)
		if i == len(targets) {
			for _, cfg := range []QuerySetConfig{setRestoreConfig, {K: 2000, AdvanceEvery: 16}} {
				if qs, err := RestoreQuerySet(cfg, bytes.NewReader(data)); err == nil {
					if err := qs.Checkpoint(new(bytes.Buffer)); err != nil {
						t.Fatalf("a restored set cannot checkpoint: %v", err)
					}
				}
			}
			return
		}
		if en, err := RestoreEngine(queries[i], targets[i].cfg, bytes.NewReader(data)); err == nil {
			if err := en.Checkpoint(new(bytes.Buffer)); err != nil {
				t.Fatalf("a restored engine cannot checkpoint: %v", err)
			}
		}
	})
}

// TestSupervisedHookPanicIsACrash: a Config.Trace hook that panics once is
// a crash to a supervised Engine or QuerySet. No panic escapes Process: the
// call returns nil and Err names the event and the panic. Reopening the
// directory with a quiet hook resumes, and the output equals the in-memory
// run's.
func TestSupervisedHookPanicIsACrash(t *testing.T) {
	q := pairQuery(t)
	events := pairStream(0, 40)
	type durable interface {
		Start() ([]Match, error)
		Process(Event) []Match
		Flush() []Match
		Err() error
		Close() error
	}
	kinds := []struct {
		name   string
		memory func() durable
		open   func(t *testing.T, hook TraceHook, sc SupervisorConfig) durable
	}{
		{"engine", func() durable { return MustNewEngine(q, Config{K: 10}) },
			func(t *testing.T, hook TraceHook, sc SupervisorConfig) durable {
				en, err := NewSupervisedEngine(q, Config{K: 10, Trace: hook}, sc)
				if err != nil {
					t.Fatal(err)
				}
				return en
			}},
		{"queryset", func() durable {
			qs := MustNewQuerySet(QuerySetConfig{K: 10})
			qs.Register("pair", q)
			return qs
		}, func(t *testing.T, hook TraceHook, sc SupervisorConfig) durable {
			qs, err := NewSupervisedQuerySet(QuerySetConfig{K: 10, Trace: hook}, sc)
			if err == nil {
				err = qs.Register("pair", q)
			}
			if err != nil {
				t.Fatal(err)
			}
			return qs
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			mem := kind.memory()
			var want []Match
			for _, ev := range events {
				want = append(want, mem.Process(ev)...)
			}
			want = append(want, mem.Flush()...)

			sc := SupervisorConfig{Dir: t.TempDir(), CheckpointEvery: 4, DisableFsync: true}
			fired := false
			hook := TraceFunc(func(te TraceEvent) {
				if te.Op == OpEmit && !fired {
					fired = true
					panic("hook fault")
				}
			})
			s := kind.open(t, hook, sc)
			if _, err := s.Start(); err != nil {
				t.Fatal(err)
			}
			var got []Match
			at := 0
			for ; at < len(events) && s.Err() == nil; at++ {
				got = append(got, s.Process(events[at])...)
			}
			if err := s.Err(); !fired || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("event Seq %d: hook fault", events[at-1].Seq)) {
				t.Fatalf("hook fired %v, Err %v", fired, err)
			}
			s.Close()

			s = kind.open(t, TraceFunc(func(TraceEvent) {}), sc)
			recovered, err := s.Start()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, recovered...)
			for _, ev := range events[at:] {
				got = append(got, s.Process(ev)...)
			}
			got = append(got, s.Flush()...)
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if ok, diff := SameResults(want, got); !ok || len(want) == 0 {
				t.Fatalf("%d matches resumed, %d in memory:\n%s", len(got), len(want), diff)
			}
		})
	}
}
