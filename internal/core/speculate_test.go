package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

func TestSpeculateConvergesToOracleUnderDisorder(t *testing.T) {
	// Invariant I7: inserts minus retracts equals the exact result set.
	queries := []string{
		"PATTERN SEQ(A a, B b) WITHIN 50",
		"PATTERN SEQ(A a, !(N n), B b) WITHIN 60",
		"PATTERN SEQ(A a, B b, !(N n)) WITHIN 40",
		"PATTERN SEQ(!(N n), A a, B b) WITHIN 60",
		"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = n.id WITHIN 60",
	}
	for _, q := range queries {
		p := compile(t, q)
		for seed := int64(0); seed < 8; seed++ {
			sorted := gen.Uniform(150, []string{"A", "B", "N"}, 3, 6, seed)
			shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: 40, Seed: seed + 1})
			want := oracle.Matches(p, sorted)
			got := engine.Drain(MustNew(p, Options{Emit: EmitThenRetract, K: 40}), shuffled)
			if ok, diff := plan.SameResults(want, got); !ok {
				t.Fatalf("%s seed %d: converged set wrong:\n%s", q, seed, diff)
			}
		}
	}
}

func TestSpeculateConvergenceProperty(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 50")
	f := func(seed int64) bool {
		sorted := gen.Uniform(80, []string{"A", "B", "N"}, 2, 5, seed)
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.5, MaxDelay: 30, Seed: seed})
		want := oracle.Matches(p, sorted)
		got := engine.Drain(MustNew(p, Options{Emit: EmitThenRetract, K: 30}), shuffled)
		ok, _ := plan.SameResults(want, got)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeculateEmitsImmediatelyThenRetracts(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	en := MustNew(p, Options{Emit: EmitThenRetract, K: 50})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	out := en.Process(event.Event{Type: "B", TS: 30, Seq: 2})
	if len(out) != 1 || out[0].Kind != plan.Insert {
		t.Fatalf("speculative insert expected, got %v", out)
	}
	// The negative arrives late: a retraction must follow.
	out = en.Process(event.Event{Type: "N", TS: 20, Seq: 3})
	if len(out) != 1 || out[0].Kind != plan.Retract || out[0].Key() != "1|2" {
		t.Fatalf("retract expected, got %v", out)
	}
	// A second identical negative must not retract twice.
	out = en.Process(event.Event{Type: "N", TS: 25, Seq: 4})
	if len(out) != 0 {
		t.Fatalf("double retraction: %v", out)
	}
	s := en.Metrics()
	if s.Matches != 1 || s.Retractions != 1 {
		t.Errorf("counters: %+v", s)
	}
}

func TestSpeculateNegativeKnownAtConstructionSuppressesInsert(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	en := MustNew(p, Options{Emit: EmitThenRetract, K: 50})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	en.Process(event.Event{Type: "N", TS: 20, Seq: 2})
	out := en.Process(event.Event{Type: "B", TS: 30, Seq: 3})
	if len(out) != 0 {
		t.Fatalf("known negative must suppress insert, got %v", out)
	}
	if en.Metrics().Retractions != 0 {
		t.Error("nothing to retract")
	}
}

func TestSpeculateSealedMatchNotRetractable(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	en := MustNew(p, Options{Emit: EmitThenRetract, K: 10, PurgeEvery: 1})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	out := en.Process(event.Event{Type: "B", TS: 30, Seq: 2})
	if len(out) != 1 {
		t.Fatal("insert expected")
	}
	// Advance safe clock past the gap's seal (30): clock 45 => safe 35.
	en.Process(event.Event{Type: "A", TS: 45, Seq: 3})
	if en.liveVuln != 0 {
		t.Error("vulnerability should have expired")
	}
	// A bound-violating negative (delay > K) is dropped, no retraction.
	out = en.Process(event.Event{Type: "N", TS: 20, Seq: 4})
	if len(out) != 0 {
		t.Fatalf("sealed match retracted: %v", out)
	}
	if en.Metrics().EventsLate != 1 {
		t.Error("late negative not counted")
	}
}

func TestSpeculateNoRetractionsWithoutNegation(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	sorted := gen.Uniform(300, []string{"A", "B"}, 3, 5, 7)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: 30, Seed: 2})
	got := engine.Drain(MustNew(p, Options{Emit: EmitThenRetract, K: 30}), shuffled)
	for _, m := range got {
		if m.Kind == plan.Retract {
			t.Fatal("positive-only query produced a retraction")
		}
	}
	if en := MustNew(p, Options{Emit: EmitThenRetract, K: 30}); en.Name() != "speculate" {
		t.Error("name wrong")
	}
}

func TestSpeculateLowerLatencyThanConservative(t *testing.T) {
	// The whole point of speculation: results appear with zero sealing
	// delay on the happy path.
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	en := MustNew(p, Options{Emit: EmitThenRetract, K: 1000})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	out := en.Process(event.Event{Type: "B", TS: 30, Seq: 2})
	if len(out) != 1 {
		t.Fatal("speculation should not wait for sealing")
	}
	if en.Metrics().LogicalLat.Max != 0 {
		t.Errorf("latency = %d, want 0", en.Metrics().LogicalLat.Max)
	}
}

func TestSpeculateStateBoundedByPurge(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 50")
	sorted := gen.Uniform(10_000, []string{"A", "B", "N"}, 10, 5, 3)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.2, MaxDelay: 100, Seed: 4})
	en := MustNew(p, Options{Emit: EmitThenRetract, K: 100, PurgeEvery: 16})
	for _, e := range shuffled {
		en.Process(e)
	}
	if s := en.Metrics(); s.PeakState > 2000 {
		t.Errorf("peak state = %d", s.PeakState)
	}
}

// TestSpeculateCompensationsLeaveInEmissionOrder: a negative that
// invalidates several vulnerable matches retracts them in the order their
// inserts were emitted — not by timestamp, not by the walk that finds them —
// keyed by the plan's attribute or filed under the zero key. Crash recovery
// replays against that order.
func TestSpeculateCompensationsLeaveInEmissionOrder(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id AND a.id = n.id WITHIN 100")
	id := event.Attrs{"id": event.Int(1)}
	arrivals := []event.Event{
		kev("A", 10, 1, id),
		kev("B", 50, 2, id),
		kev("B", 40, 3, id),
		kev("B", 60, 4, id),
		kev("A", 15, 5, id), // late: completes three matches at once
	}
	for _, pp := range []*plan.Plan{p, withoutKey(p)} {
		en := MustNew(pp, Options{Emit: EmitThenRetract, K: 1000})
		var inserts []string
		for _, e := range arrivals {
			for _, m := range en.Process(e) {
				inserts = append(inserts, m.Key())
			}
		}
		if len(inserts) != 6 {
			t.Fatalf("keyed=%v: %d inserts %v, want 6", en.Keyed(), len(inserts), inserts)
		}
		var retracts []string
		for _, m := range en.Process(kev("N", 20, 6, id)) {
			if m.Kind != plan.Retract {
				t.Fatalf("keyed=%v: %v, want only retractions", en.Keyed(), m)
			}
			retracts = append(retracts, m.Key())
		}
		if fmt.Sprint(retracts) != fmt.Sprint(inserts) {
			t.Errorf("keyed=%v: retractions %v, want the emission order %v", en.Keyed(), retracts, inserts)
		}
	}
}
