package engine_test

import (
	"testing"

	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/inorder"
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

// TestAllEnginesImplementInterfaces pins the interface contracts: every
// strategy is an engine.Engine and an engine.Advancer.
func TestAllEnginesImplementInterfaces(t *testing.T) {
	p := testPlan(t)
	engines := []engine.Engine{
		core.MustNew(p, core.Options{K: 10}),
		inorder.New(p),
		kslack.NewEngine(10, core.MustNew(p, core.Options{})),
		core.MustNew(p, core.Options{K: 10, Emit: core.EmitThenRetract}),
	}
	names := map[string]bool{}
	for _, en := range engines {
		if _, ok := en.(engine.Advancer); !ok {
			t.Errorf("%s does not support heartbeats", en.Name())
		}
		names[en.Name()] = true
	}
	for _, want := range []string{"native", "inorder", "kslack", "speculate"} {
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
