package kslack

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// stubEngine is a minimal engine.Engine recording what the levee hands it.
type stubEngine struct {
	processed []event.Event
	advanced  []event.Time
	flushed   bool
}

var _ engine.Engine = (*stubEngine)(nil)

func (s *stubEngine) Name() string { return "stub" }
func (s *stubEngine) Process(e event.Event) []plan.Match {
	s.processed = append(s.processed, e)
	// Emit one single-event "match" per processed event so restamping has
	// something to rewrite.
	return []plan.Match{{Kind: plan.Insert, Events: []event.Event{e}}}
}
func (s *stubEngine) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	for _, e := range batch {
		out = append(out, s.Process(e)...)
	}
	return out
}
func (s *stubEngine) Advance(ts event.Time) []plan.Match {
	s.advanced = append(s.advanced, ts)
	return nil
}
func (s *stubEngine) Flush() []plan.Match        { s.flushed = true; return nil }
func (s *stubEngine) Checkpoint(io.Writer) error { return engine.ErrNoCheckpoint }
func (s *stubEngine) Metrics() obsv.Snapshot     { return obsv.Snapshot{} }
func (s *stubEngine) StateSize() int             { return 0 }
func (s *stubEngine) StateSnapshot() *provenance.StateSnapshot {
	return &provenance.StateSnapshot{Engine: s.Name()}
}

func TestEngineAdvanceReleasesAndForwardsWatermark(t *testing.T) {
	stub := &stubEngine{}
	en := NewEngine(10, stub, engine.Env{})
	en.Process(event.Event{Type: "A", TS: 5, Seq: 1})
	if len(stub.processed) != 0 {
		t.Fatal("event released before watermark")
	}
	out := en.Advance(100)
	if len(stub.processed) != 1 {
		t.Fatalf("heartbeat did not release: %d", len(stub.processed))
	}
	if len(out) != 1 {
		t.Fatalf("released event's match not forwarded: %v", out)
	}
	// The inner engine is advanced to the buffer's watermark, not to ts.
	if out2 := en.Advance(200); len(out2) != 0 {
		t.Fatalf("second heartbeat produced %v", out2)
	}
	if len(stub.advanced) != 2 || stub.advanced[0] != 90 || stub.advanced[1] != 190 {
		t.Fatalf("inner engine advanced to %v, want [90 190]", stub.advanced)
	}
}

func TestEngineRestampsEmissionMetadata(t *testing.T) {
	stub := &stubEngine{}
	en := NewEngine(10, stub, engine.Env{})
	en.Process(event.Event{Type: "A", TS: 5, Seq: 1})
	out := en.Process(event.Event{Type: "A", TS: 50, Seq: 2}) // releases ts=5
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if out[0].EmitClock != 50 {
		t.Errorf("EmitClock = %d, want outer clock 50", out[0].EmitClock)
	}
	if out[0].EmitSeq != 2 {
		t.Errorf("EmitSeq = %d, want arrival 2", out[0].EmitSeq)
	}
	s := en.Metrics()
	if s.Matches != 1 {
		t.Errorf("outer collector matches = %d", s.Matches)
	}
	if s.LogicalLat.Max != 45 {
		t.Errorf("latency = %d, want 50-5", s.LogicalLat.Max)
	}
}

func TestEngineRestampCountsRetractions(t *testing.T) {
	en := NewEngine(0, &stubEngine{}, engine.Env{})
	ms := en.restamp([]plan.Match{
		{Kind: plan.Retract, Events: []event.Event{{TS: 1}}},
		{Kind: plan.Insert, Events: []event.Event{{TS: 1}}},
	})
	if len(ms) != 2 {
		t.Fatal("restamp dropped matches")
	}
	s := en.Metrics()
	if s.Matches != 1 || s.Retractions != 1 {
		t.Errorf("counters: %+v", s)
	}
}

func TestEngineFlushFlushesInner(t *testing.T) {
	stub := &stubEngine{}
	en := NewEngine(1000, stub, engine.Env{})
	en.Process(event.Event{Type: "A", TS: 5, Seq: 1})
	out := en.Flush()
	if !stub.flushed {
		t.Error("inner not flushed")
	}
	if len(stub.processed) != 1 {
		t.Error("buffer not drained into inner on flush")
	}
	if len(out) != 1 {
		t.Errorf("flush output: %v", out)
	}
}

// TestCheckpointContinuesExactly: a levee checkpointed mid-stream, its
// buffer holding events, restores to a continuation that emits what the
// uninterrupted levee does with the same stamps (EmitClock, EmitSeq) — the
// arrival count and the buffer's clock travel in the checkpoint — static
// and adaptive.
func TestCheckpointContinuesExactly(t *testing.T) {
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id WITHIN 40", nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	events := shuffleBounded(rng, sortedStream(rng, 200, []string{"A", "B", "N"}), 30)
	inner := func(s *engine.Sections) (engine.Engine, error) { return core.Restore(p, engine.Env{}, s) }
	for name, mk := range map[string]func() *Engine{
		"static": func() *Engine { return NewEngine(30, core.MustNew(p, core.Options{}), engine.Env{}) },
		"adaptive": func() *Engine {
			ctrl := adaptive.MustController(adaptive.Config{Enabled: true, DecisionEvery: 16}, 30)
			return NewAdaptiveEngine(ctrl, core.MustNew(p, core.Options{}), engine.Env{})
		},
	} {
		whole, cut := mk(), mk()
		var want, got []plan.Match
		for _, e := range events[:120] {
			want = append(want, whole.Process(e)...)
			got = append(got, cut.Process(e)...)
		}
		if cut.buf.Len() == 0 {
			t.Fatalf("%s: nothing buffered at the cut", name)
		}
		var ckpt bytes.Buffer
		if err := cut.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(open(t, ckpt.String()), 30, engine.Env{}, inner)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range events[120:] {
			want = append(want, whole.Process(e)...)
			got = append(got, restored.Process(e)...)
		}
		want, got = append(want, whole.Flush()...), append(got, restored.Flush()...)
		if len(want) != len(got) || len(want) == 0 {
			t.Fatalf("%s: restored run emitted %d matches, uninterrupted %d", name, len(got), len(want))
		}
		for i := range want {
			if want[i].Key() != got[i].Key() || want[i].EmitClock != got[i].EmitClock || want[i].EmitSeq != got[i].EmitSeq {
				t.Fatalf("%s: emission %d: %s @%d/%d, uninterrupted %s @%d/%d", name, i,
					got[i].Key(), got[i].EmitClock, got[i].EmitSeq, want[i].Key(), want[i].EmitClock, want[i].EmitSeq)
			}
		}
	}
}

// open opens checkpoint sections, sealed in the envelope, as the facade
// does.
func open(t *testing.T, data string) *engine.Sections {
	t.Helper()
	blob, err := engine.Seal(func(w io.Writer) error {
		_, err := io.WriteString(w, data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.Open(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRestoreRejects pins the levee's refusals: a static buffer written at
// another K than the configured one (a negative one included), a record
// that does not decode, another layer's record (one without "maxSeen": the
// hybrid's, the kernel's, an empty one), and an inner checkpoint its
// restore function refuses.
func TestRestoreRejects(t *testing.T) {
	inner := func(*engine.Sections) (engine.Engine, error) { return &stubEngine{}, nil }
	for _, data := range []string{
		`{"k":7,"maxSeen":0}`, `{"version":3,"k":-1,"maxSeen":0}`, `{"version":2,"k":-5,"maxSeen":0}`, `{"k":"5","maxSeen":0}`,
		`{"k":5}`, `{}`, `{"minDwell":1,"dwell":0,"switches":0}`, `{"planSource":"PATTERN SEQ(A a) WITHIN 5"}`,
	} {
		if _, err := Restore(open(t, data), 5, engine.Env{}, inner); err == nil {
			t.Errorf("Restore accepted %s", data)
		}
	}
	if _, err := Restore(open(t, `{"k":5,"maxSeen":0}`), 5, engine.Env{}, inner); err != nil {
		t.Errorf("Restore refused an empty buffer at the configured K: %v", err)
	}
	refuse := func(*engine.Sections) (engine.Engine, error) { return nil, errors.New("no") }
	if _, err := Restore(open(t, `{"k":5,"maxSeen":0}`), 5, engine.Env{}, refuse); err == nil {
		t.Error("Restore ignored the inner engine's refusal")
	}
}
