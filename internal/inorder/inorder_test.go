package inorder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

func compile(t *testing.T, src string) *plan.Plan {
	t.Helper()
	p, err := plan.ParseAndCompile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomStream produces a sorted stream over the given types with an id
// attribute, for oracle comparisons.
func randomStream(rng *rand.Rand, n int, types []string, idRange int, maxGap int) []event.Event {
	events := make([]event.Event, n)
	ts := event.Time(0)
	for i := 0; i < n; i++ {
		ts += event.Time(rng.Intn(maxGap) + 1)
		events[i] = event.Event{
			Type:  types[rng.Intn(len(types))],
			TS:    ts,
			Seq:   event.Seq(i + 1),
			Attrs: event.Attrs{"id": event.Int(int64(rng.Intn(idRange)))}.List(),
		}
	}
	return events
}

func assertSameAsOracle(t *testing.T, p *plan.Plan, events []event.Event) {
	t.Helper()
	want := oracle.Matches(p, events)
	got := engine.Drain(New(p), events)
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("engine disagrees with oracle (%d vs %d matches):\n%s", len(want), len(got), diff)
	}
}

func TestMatchesOracleOnSortedStreams(t *testing.T) {
	queries := []string{
		"PATTERN SEQ(A a, B b) WITHIN 50",
		"PATTERN SEQ(A a, B b, C c) WITHIN 80",
		"PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100",
		"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = n.id WITHIN 60",
		"PATTERN SEQ(!(N n), A a, B b) WITHIN 60",
		"PATTERN SEQ(A a, B b, !(N n)) WITHIN 40",
		"PATTERN SEQ(T a, T b) WITHIN 30",
		"PATTERN SEQ(A a) WITHIN 10",
	}
	types := []string{"A", "B", "C", "N", "T"}
	for _, q := range queries {
		p := compile(t, q)
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			events := randomStream(rng, 120, types, 3, 8)
			t.Run(q, func(t *testing.T) { assertSameAsOracle(t, p, events) })
		}
	}
}

func TestOracleAgreementProperty(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id WITHIN 40")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		events := randomStream(rng, 80, []string{"A", "B", "N"}, 2, 6)
		want := oracle.Matches(p, events)
		got := engine.Drain(New(p), events)
		ok, _ := plan.SameResults(want, got)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMissesMatchesOnDisorderedInput(t *testing.T) {
	// The defining failure mode the paper analyzes: a late-arriving earlier
	// event never becomes a predecessor in the arrival-ordered stacks.
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	a := event.Event{Type: "A", TS: 10, Seq: 1}
	b := event.Event{Type: "B", TS: 20, Seq: 2}
	// In order: match found.
	if got := engine.Drain(New(p), []event.Event{a, b}); len(got) != 1 {
		t.Fatalf("in-order: %d matches", len(got))
	}
	// B before A (A out-of-order): the naive engine misses the match.
	if got := engine.Drain(New(p), []event.Event{b, a}); len(got) != 0 {
		t.Fatalf("disordered: naive engine should miss the match, got %v", got)
	}
}

func TestPrematureNegationOutputOnDisorderedInput(t *testing.T) {
	// A negative event arriving late is not seen at emission time: the
	// naive engine produces a false positive.
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	a := event.Event{Type: "A", TS: 10, Seq: 1}
	n := event.Event{Type: "N", TS: 15, Seq: 2}
	b := event.Event{Type: "B", TS: 20, Seq: 3}
	if got := engine.Drain(New(p), []event.Event{a, n, b}); len(got) != 0 {
		t.Fatalf("in-order negation: %v", got)
	}
	// N arrives after B: premature (incorrect) match.
	if got := engine.Drain(New(p), []event.Event{a, b, n}); len(got) != 1 {
		t.Fatalf("disordered negation: want premature match, got %v", got)
	}
}

func TestPurgeBoundsState(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 10")
	en := New(p)
	for i := 0; i < 1000; i++ {
		en.Process(event.Event{Type: "A", TS: event.Time(i * 5), Seq: event.Seq(i + 1)})
	}
	if st := en.StateSize(); st > 8 {
		t.Errorf("state grew to %d despite purge", st)
	}
	if s := en.Metrics(); s.Purged == 0 {
		t.Error("purge counter never incremented")
	}
}

func TestIrrelevantTypesSkipped(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 10")
	en := New(p)
	en.Process(event.Event{Type: "ZZZ", TS: 1, Seq: 1})
	s := en.Metrics()
	if s.EventsIn != 0 || s.Irrelevant != 1 {
		t.Errorf("irrelevant handling: %+v", s)
	}
	if en.StateSize() != 0 {
		t.Error("irrelevant event stored")
	}
}

func TestConstFalsePlanEmitsNothing(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a) WHERE 1 = 2 WITHIN 10")
	if got := engine.Drain(New(p), []event.Event{{Type: "A", TS: 1, Seq: 1}}); len(got) != 0 {
		t.Fatal("ConstFalse must suppress all output")
	}
}

func TestLocalPredicateFiltersAtInsertion(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.x > 5 WITHIN 100")
	en := New(p)
	en.Process(event.New("A", 1, event.Attrs{"x": event.Int(3)}))
	if en.StateSize() != 0 {
		t.Error("event failing local predicate was stored")
	}
	en.Process(event.New("A", 2, event.Attrs{"x": event.Int(7)}))
	if en.StateSize() != 1 {
		t.Error("event passing local predicate was not stored")
	}
}

func TestMetricsLatencyZeroForImmediateEmit(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	en := New(p)
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	out := en.Process(event.Event{Type: "B", TS: 20, Seq: 2})
	if len(out) != 1 {
		t.Fatal("no match")
	}
	s := en.Metrics()
	if s.LogicalLat.Max != 0 {
		t.Errorf("immediate emission should have zero logical latency, got %d", s.LogicalLat.Max)
	}
}

func TestTrailingNegationWaitsForWindow(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, !(N n)) WITHIN 20")
	en := New(p)
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	out := en.Process(event.Event{Type: "B", TS: 15, Seq: 2})
	if len(out) != 0 {
		t.Fatal("trailing negation must defer emission")
	}
	// N inside (15, 30) kills the match.
	en.Process(event.Event{Type: "N", TS: 20, Seq: 3})
	out = en.Process(event.Event{Type: "A", TS: 40, Seq: 4}) // advances clock past seal
	if len(out) != 0 {
		t.Fatalf("negative in trailing gap should suppress, got %v", out)
	}
	// Second run without the negative: emitted once the clock passes seal.
	en2 := New(p)
	en2.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	en2.Process(event.Event{Type: "B", TS: 15, Seq: 2})
	out = en2.Process(event.Event{Type: "A", TS: 40, Seq: 4})
	if len(out) != 1 {
		t.Fatalf("sealed match should emit, got %v", out)
	}
}

func TestFlushSealsTrailingNegation(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, !(N n)) WITHIN 100")
	en := New(p)
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	if out := en.Process(event.Event{Type: "B", TS: 15, Seq: 2}); len(out) != 0 {
		t.Fatal("should pend")
	}
	if out := en.Flush(); len(out) != 1 {
		t.Fatalf("Flush should seal, got %v", out)
	}
}

// TestEqualSealLeavesInCompletionOrder: bindings sealing at one timestamp
// leave pending in the order they were completed, the kernel's tie rule.
func TestEqualSealLeavesInCompletionOrder(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, !(N n)) WITHIN 100")
	en := New(p)
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	for i, ts := range []event.Time{20, 25, 30} {
		if out := en.Process(event.Event{Type: "B", TS: ts, Seq: event.Seq(i + 2)}); len(out) != 0 {
			t.Fatal("should pend")
		}
	}
	out := en.Process(event.Event{Type: "A", TS: 200, Seq: 5})
	if len(out) != 3 || out[0].Events[1].TS != 20 || out[1].Events[1].TS != 25 || out[2].Events[1].TS != 30 {
		t.Fatalf("sealed together, want B@20, B@25, B@30 in that order, got %v", out)
	}
}
