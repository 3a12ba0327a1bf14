package oostream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// restoreTargets are the compositions FuzzRestoreEngine restores into: the
// fuzzer picks one by index and supplies the checkpoint bytes.
var restoreTargets = []struct {
	name  string
	query string
	cfg   Config
}{
	{"unkeyed", "PATTERN SEQ(A a, B b) WITHIN 50", Config{K: 10}},
	{"keyed", "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 50", Config{K: 10}},
	{"negation", "PATTERN SEQ(A a, !(C c), B b) WITHIN 50", Config{K: 10}},
	{"adaptive", "PATTERN SEQ(A a, !(C c), B b) WHERE a.id = b.id WITHIN 50",
		Config{K: 10, Adaptive: Adaptive{Enabled: true, MinK: 2, MaxK: 40}}},
	{"partitioned", "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 50",
		Config{K: 10, Partition: Partition{Attr: "id", Shards: 2}}},
}

// restoreStream is the fixed stream a restored engine must take: A, C and B
// over three ids, every fourth event 7 ms late, timestamps continuing from
// `from`.
func restoreStream(from Time, n int) []Event {
	events := make([]Event, n)
	for i := range events {
		ts := from + Time(3*i)
		if i%4 == 3 {
			ts -= 7
		}
		events[i] = NewEvent([]string{"A", "C", "B"}[i%3], ts, Attrs{"id": Int(int64(i % 3))})
		events[i].Seq = Seq(1000 + int(from) + i)
	}
	return events
}

// shortPendingCheckpoint is the bare-JSON (v1, no CRC envelope) checkpoint of
// restoreTargets' negation query whose one pending binding holds `events`
// where the pattern has two positions.
func shortPendingCheckpoint(events string) string {
	q := MustCompile("PATTERN SEQ(A a, !(C c), B b) WITHIN 50", nil)
	return `{"version":1,"planSource":"` + q.Source() + `","k":10,"latePolicy":1,"purgeEvery":64,` +
		`"clock":100,"started":true,"arrival":1,"enumerated":1,"since":1,"stacks":[[],[]],"negStores":[[]],` +
		`"pending":[{"events":` + events + `,"sealTS":95,"madeSeq":1}]}`
}

// TestRestoreEngineRejectsShortPending: a checkpoint whose pending binding is
// shorter than the pattern (or empty) is refused at restore. It used to be
// accepted and panic later, in Process, when the binding sealed and its
// negation gap was read off a position it does not have.
func TestRestoreEngineRejectsShortPending(t *testing.T) {
	q := MustCompile(restoreTargets[2].query, nil)
	for _, events := range []string{`[{"type":"A","ts":90,"seq":1}]`, `[]`} {
		en, err := RestoreEngine(q, restoreTargets[2].cfg, strings.NewReader(shortPendingCheckpoint(events)))
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
	// Real checkpoints written by this commit, one per target, taken after a
	// prefix of the stream (the negation targets hold pending bindings).
	queries := make([]*Query, len(restoreTargets))
	for i, tgt := range restoreTargets {
		queries[i] = MustCompile(tgt.query, nil)
		en := MustNewEngine(queries[i], tgt.cfg)
		for _, e := range restoreStream(40, 12) {
			en.Process(e)
		}
		var buf bytes.Buffer
		if err := en.Checkpoint(&buf); err != nil {
			f.Fatalf("%s: %v", tgt.name, err)
		}
		f.Add(uint8(i), buf.Bytes())
	}
	f.Add(uint8(2), []byte(shortPendingCheckpoint(`[{"type":"A","ts":90,"seq":1}]`)))
	f.Add(uint8(2), []byte(shortPendingCheckpoint(`[]`)))

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
			for _, e := range restoreStream(100, 20) {
				out = append(out, en.Process(e)...)
			}
			out = append(out, en.Advance(1000)...)
			out = append(out, en.Flush()...)
			return fmt.Sprint(out)
		}
		if a, b := drive(first), drive(second); a != b {
			t.Fatalf("%s: output diverges after one more checkpoint and restore\n first: %s\nsecond: %s", tgt.name, a, b)
		}
	})
}
