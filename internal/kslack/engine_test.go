package kslack

import (
	"io"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/metrics"
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
func (s *stubEngine) Metrics() metrics.Snapshot  { return metrics.Snapshot{} }
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
	if s.LogicalLat.Max() != 45 {
		t.Errorf("latency = %d, want 50-5", s.LogicalLat.Max())
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
