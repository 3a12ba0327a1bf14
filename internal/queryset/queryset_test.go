package queryset

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/plan"
)

// testOptions wires native K=0 inner engines, the contract the Set
// requires (the levee in front carries all slack). With no levee in front,
// the watermark stays at the bottom of the time range: a fan-out moves no
// engine.
func testOptions() Options {
	return Options{
		Watermark: func() event.Time { return math.MinInt64 },
		NewEngine: func(id string, p *plan.Plan) (engine.Engine, error) {
			return core.New(p, core.Options{})
		},
		Compile: func(src string) (*plan.Plan, error) {
			return plan.ParseAndCompile(src, nil)
		},
		RestoreEngine: func(id string, p *plan.Plan, s *engine.Sections) (engine.Engine, error) {
			return core.Restore(p, engine.Env{}, s)
		},
	}
}

func compile(t *testing.T, src string) *plan.Plan {
	t.Helper()
	p, err := plan.ParseAndCompile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestIndexGating pins the index construction rules: the first positive
// component's type opens the gate and is never gated; leading negation
// types are indexed ungated (they precede the anchor whose gap they
// guard); later component types are gated; unreferenced types are absent.
func TestIndexGating(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, "PATTERN SEQ(!(Z z), A a, !(B b), C c) WHERE a.id = c.id AND a.id = z.id AND a.id = b.id WITHIN 100")
	if err := s.Register("q", p); err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ opens, gated bool }{
		"Z": {false, false}, // leading negation: ungated
		"A": {true, false},  // first positive: opens, ungated
		"B": {false, true},  // interior negation: gated
		"C": {false, true},  // later positive: gated
	}
	for typ, w := range want {
		ds := s.index[typ]
		if len(ds) != 1 {
			t.Fatalf("index[%s] has %d entries, want 1", typ, len(ds))
		}
		if ds[0].opens != w.opens || ds[0].gated != w.gated {
			t.Errorf("index[%s] = {opens:%v gated:%v}, want %+v", typ, ds[0].opens, ds[0].gated, w)
		}
	}
	if ds := s.index["UNUSED"]; ds != nil {
		t.Errorf("unreferenced type indexed: %v", ds)
	}
	// Unregister must remove the query from every type bucket.
	if _, err := s.Unregister("q"); err != nil {
		t.Fatal(err)
	}
	for typ := range want {
		if len(s.index[typ]) != 0 {
			t.Errorf("index[%s] not emptied by Unregister", typ)
		}
	}
}

// TestCheckpointDeterministicBytes checkpoints the same state twice and
// requires identical bytes: gate tables are map-backed, so the encoder
// must canonicalize their order.
func TestCheckpointDeterministicBytes(t *testing.T) {
	mk := func() *Set {
		s, err := New(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 50")
		if err := s.Register("q", p); err != nil {
			t.Fatal(err)
		}
		// Many keys at one timestamp forces tie-breaking on the key.
		for i := 0; i < 20; i++ {
			s.Process(event.Event{Type: "A", TS: 10, Seq: event.Seq(i + 1),
				Attrs: event.Attrs{"id": event.Int(int64(i))}.List()})
		}
		s.Process(event.Event{Type: "A", TS: 40, Seq: 99,
			Attrs: event.Attrs{"id": event.Int(0)}.List()})
		return s
	}
	var a, b bytes.Buffer
	if err := mk().Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical state produced different checkpoint bytes:\n%s\n%s", a.String(), b.String())
	}
}

// TestRestoreRejects pins the Restore error surface: missing factories, a
// registry that does not decode, and another layer's record (one without
// "queries": the levee's, the kernel's, an empty one).
func TestRestoreRejects(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := engine.Seal(s.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	bad := testOptions()
	bad.Compile = nil
	sec, err := engine.Open(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bad, sec); err == nil {
		t.Error("Restore accepted nil Compile")
	}
	for _, data := range []string{
		`{"queries":[],"sinceAdvance":"1"}`, `{}`, `{"sinceAdvance":1}`,
		`{"k":10,"maxSeen":0,"started":false}`, `{"planSource":"PATTERN SEQ(A a) WITHIN 5"}`,
	} {
		blob, err := engine.Seal(func(w io.Writer) error {
			_, err := io.WriteString(w, data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if sec, err = engine.Open(bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(testOptions(), sec); err == nil {
			t.Errorf("Restore accepted %s", data)
		}
	}
}

// TestGatePruning fills gates for keys that go quiet and checks the
// fan-out prunes them without costing matches that are still reachable.
func TestGatePruning(t *testing.T) {
	ts := event.Time(0)
	opts := testOptions()
	opts.AdvanceEvery = 1                            // prune at every release
	opts.Watermark = func() event.Time { return ts } // the events come in order
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 20")
	if err := s.Register("q", p); err != nil {
		t.Fatal(err)
	}
	var out []plan.Match
	seq := event.Seq(0)
	push := func(typ string, id int64) {
		ts += 5
		seq++
		out = append(out, s.Process(event.Event{Type: typ, TS: ts, Seq: seq,
			Attrs: event.Attrs{"id": event.Int(id)}.List()})...)
	}
	// Key 1 opens then goes silent far past the window; key 2 opens late
	// and completes inside it.
	push("A", 1)
	for i := 0; i < 20; i++ {
		push("X", 3) // irrelevant type, drives the watermark forward
	}
	push("A", 2)
	push("B", 2)
	push("B", 1) // key 1's gate expired with the window: must be skipped
	out = append(out, s.Flush()...)
	if len(out) != 1 || out[0].Query != "q" {
		t.Fatalf("got %d matches, want exactly the key-2 match", len(out))
	}
	q := s.queries["q"]
	if len(q.gateByKey) > 1 {
		t.Errorf("gate table not pruned: %d entries live", len(q.gateByKey))
	}
	st := s.Stats()
	if st[0].Skipped == 0 {
		t.Error("expired gate never skipped a probe")
	}
}

// TestRegistrationOrderStable registers out of lexical order and checks
// order, Queries, and Stats all follow registration order.
func TestRegistrationOrderStable(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"zeta", "alpha", "mid"}
	for i, id := range ids {
		p := compile(t, fmt.Sprintf("PATTERN SEQ(A%d a, B%d b) WITHIN 10", i, i))
		if err := s.Register(id, p); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Queries()
	for i, id := range ids {
		if got[i] != id {
			t.Fatalf("Queries() = %v, want registration order %v", got, ids)
		}
		if s.Stats()[i].ID != id {
			t.Fatalf("Stats()[%d].ID = %q, want %q", i, s.Stats()[i].ID, id)
		}
	}
}
