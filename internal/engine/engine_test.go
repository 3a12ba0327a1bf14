package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/hybrid"
	"oostream/internal/kslack"
	"oostream/internal/plan"
)

// TestAllEnginesImplementTheContract pins the one contract: every strategy
// is an engine.Engine, checkpoints mid-stream, and restores to an engine that
// finishes the stream as the uninterrupted one does.
func TestAllEnginesImplementTheContract(t *testing.T) {
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, !(C c), B b) WITHIN 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	kernel := func(s *engine.Sections) (engine.Engine, error) { return core.Restore(p, engine.Env{}, s) }
	hybridEngine := func() engine.Engine {
		ctrl, err := adaptive.NewController(adaptive.Config{}, 10)
		if err != nil {
			t.Fatal(err)
		}
		return must(hybrid.New(p, core.Options{}, hybrid.Options{Controller: ctrl}))
	}
	for _, c := range []struct {
		fresh   func() engine.Engine
		restore func(*engine.Sections) (engine.Engine, error)
	}{
		{func() engine.Engine { return core.MustNew(p, core.Options{K: 10}) }, kernel},
		{func() engine.Engine { return kslack.NewEngine(10, core.MustNew(p, core.Options{}), engine.Env{}) },
			func(s *engine.Sections) (engine.Engine, error) { return kslack.Restore(s, 10, engine.Env{}, kernel) }},
		{func() engine.Engine { return core.MustNew(p, core.Options{K: 10, Emit: core.EmitThenRetract}) }, kernel},
		{hybridEngine, func(s *engine.Sections) (engine.Engine, error) { return hybrid.Restore(p, engine.Env{}, s) }},
	} {
		// A speculative engine emits a1·b3 at once and retracts it at c2.
		events := []event.Event{
			{Type: "A", TS: 10, Seq: 1}, {Type: "B", TS: 30, Seq: 3},
			{Type: "C", TS: 20, Seq: 2}, {Type: "A", TS: 40, Seq: 4}, {Type: "B", TS: 50, Seq: 5},
		}
		want := engine.Drain(c.fresh(), events)
		en := c.fresh()
		var got []plan.Match
		for _, e := range events[:2] {
			got = append(got, en.Process(e)...)
		}
		blob, err := engine.Seal(en.Checkpoint)
		if err != nil {
			t.Fatalf("%s checkpoint: %v", en.Name(), err)
		}
		sec, err := engine.Open(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s open: %v", en.Name(), err)
		}
		restored, err := c.restore(sec)
		if err != nil {
			t.Fatalf("%s restore: %v", en.Name(), err)
		}
		if restored.Name() != en.Name() {
			t.Errorf("restored %s as %s", en.Name(), restored.Name())
		}
		got = append(got, engine.Drain(restored, events[2:])...)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: restored run %v, uninterrupted %v", en.Name(), got, want)
		}
	}
}

func must(en *hybrid.Engine, err error) engine.Engine {
	if err != nil {
		panic(err)
	}
	return en
}

func TestDrainIncludesFlush(t *testing.T) {
	// A trailing-negation query defers emission to Flush; Drain must
	// include it.
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, B b, !(N n)) WITHIN 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	events := []event.Event{
		{Type: "A", TS: 10, Seq: 1},
		{Type: "B", TS: 20, Seq: 2},
	}
	got := engine.Drain(core.MustNew(p, core.Options{K: 10}), events)
	if len(got) != 1 {
		t.Fatalf("Drain missed the flush-time match: %v", got)
	}
}
