package engine_test

import (
	"bytes"
	"errors"
	"testing"

	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/kslack"
	"oostream/internal/plan"
)

func testPlan(t *testing.T) *plan.Plan {
	t.Helper()
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAllEnginesImplementTheContract pins the one contract: every strategy
// is an engine.Engine; native and kslack checkpoint, and the others refuse
// Checkpoint with ErrNoCheckpoint, writing nothing.
func TestAllEnginesImplementTheContract(t *testing.T) {
	p := testPlan(t)
	engines := []engine.Engine{
		core.MustNew(p, core.Options{K: 10}),
		kslack.NewEngine(10, core.MustNew(p, core.Options{}), engine.Env{}),
		core.MustNew(p, core.Options{K: 10, Emit: core.EmitThenRetract}),
	}
	names := map[string]bool{}
	for _, en := range engines {
		names[en.Name()] = true
		var buf bytes.Buffer
		err := en.Checkpoint(&buf)
		if en.Name() == "native" || en.Name() == "kslack" {
			if err != nil || buf.Len() == 0 {
				t.Errorf("%s checkpoint: err=%v, %d bytes", en.Name(), err, buf.Len())
			}
			continue
		}
		if !errors.Is(err, engine.ErrNoCheckpoint) || buf.Len() != 0 {
			t.Errorf("%s checkpoint: err=%v (want ErrNoCheckpoint), %d bytes written", en.Name(), err, buf.Len())
		}
	}
	for _, want := range []string{"native", "kslack", "speculate"} {
		if !names[want] {
			t.Errorf("missing engine name %q (got %v)", want, names)
		}
	}
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
