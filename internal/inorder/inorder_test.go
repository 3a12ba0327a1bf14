package inorder

import (
	"math/rand"
	"testing"
	"testing/quick"

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

// stateSize is the number of stack instances, buffered negatives and
// pending bindings en holds.
func stateSize(en *Engine) int {
	total := en.pending.Len()
	for _, s := range en.stacks {
		total += len(s.items)
	}
	for _, ns := range en.negStores {
		total += len(ns)
	}
	return total
}

// drain runs events through a fresh engine and flushes it.
func drain(p *plan.Plan, events []event.Event) []plan.Match {
	en := New(p)
	var out []plan.Match
	for _, e := range events {
		out = append(out, en.Process(e)...)
	}
	return append(out, en.Flush()...)
}

func assertSameAsOracle(t *testing.T, p *plan.Plan, events []event.Event) {
	t.Helper()
	want := oracle.Matches(p, events)
	got := drain(p, events)
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
		got := drain(p, events)
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
	if got := drain(p, []event.Event{a, b}); len(got) != 1 {
		t.Fatalf("in-order: %d matches", len(got))
	}
	// B before A (A out-of-order): the naive engine misses the match.
	if got := drain(p, []event.Event{b, a}); len(got) != 0 {
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
	if got := drain(p, []event.Event{a, n, b}); len(got) != 0 {
		t.Fatalf("in-order negation: %v", got)
	}
	// N arrives after B: premature (incorrect) match.
	if got := drain(p, []event.Event{a, b, n}); len(got) != 1 {
		t.Fatalf("disordered negation: want premature match, got %v", got)
	}
}

func TestPurgeBoundsState(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 10")
	en := New(p)
	for i := 0; i < 1000; i++ {
		en.Process(event.Event{Type: "A", TS: event.Time(i * 5), Seq: event.Seq(i + 1)})
	}
	if st := stateSize(en); st > 8 {
		t.Errorf("state grew to %d despite purge", st)
	}
}

func TestIrrelevantTypesSkipped(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 10")
	en := New(p)
	if out := en.Process(event.Event{Type: "ZZZ", TS: 1, Seq: 1}); out != nil {
		t.Errorf("irrelevant event emitted %v", out)
	}
	if stateSize(en) != 0 {
		t.Error("irrelevant event stored")
	}
}

func TestConstFalsePlanEmitsNothing(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a) WHERE 1 = 2 WITHIN 10")
	if got := drain(p, []event.Event{{Type: "A", TS: 1, Seq: 1}}); len(got) != 0 {
		t.Fatal("ConstFalse must suppress all output")
	}
}

func TestLocalPredicateFiltersAtInsertion(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.x > 5 WITHIN 100")
	en := New(p)
	en.Process(event.New("A", 1, event.Attrs{"x": event.Int(3)}))
	if stateSize(en) != 0 {
		t.Error("event failing local predicate was stored")
	}
	en.Process(event.New("A", 2, event.Attrs{"x": event.Int(7)}))
	if stateSize(en) != 1 {
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
	if lat := out[0].EmitClock - out[0].Last().TS; lat != 0 {
		t.Errorf("immediate emission should have zero logical latency, got %d", lat)
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

// TestRIPRegressions pins the minimized repros the differential harness found
// in this kernel's RIP walk, which checked candidates only against the last
// event's timestamp: a candidate tied with its successor, or the successor
// itself reached through the RIP it had just recorded, chained into a match.
// On the sorted stream the kernel must equal the oracle.
func TestRIPRegressions(t *testing.T) {
	ev := func(typ string, ts event.Time, seq event.Seq, id, v int64) event.Event {
		e := event.New(typ, ts, event.Attrs{"id": event.Int(id), "v": event.Int(v)})
		e.Seq = seq
		return e
	}
	for _, tc := range []struct {
		query  string
		events []event.Event
	}{
		// The one D bound at both middle positions.
		{"PATTERN SEQ(A x0, D x1, D x2, A x3) WHERE x0.id = x1.id AND x0.id = x2.id AND x0.id = x3.id WITHIN 62",
			[]event.Event{ev("A", 73, 36, 1, 6), ev("D", 75, 37, 1, 7), ev("A", 78, 38, 1, 4)}},
		// B@33 and D@33 tie: strict sequencing forbids chaining them.
		{"PATTERN SEQ(B x0, !(D n0), D x1, B x2, B x3) WHERE x3.id != x1.id WITHIN 75",
			[]event.Event{ev("B", 33, 16, 2, 7), ev("D", 33, 17, 0, 5), ev("B", 68, 31, 2, 2), ev("B", 71, 32, 2, 1)}},
		// B@19 reused across both B positions, behind a leading negation.
		{"PATTERN SEQ(!(D n0), B x0, B x1, D x2, C x3) WHERE x2.id = x0.id AND x0.v != x3.v AND x1.v != 6 WITHIN 10",
			[]event.Event{ev("B", 19, 12, 0, 0), ev("D", 23, 15, 0, 7), ev("C", 25, 18, 1, 6)}},
	} {
		assertSameAsOracle(t, compile(t, tc.query), tc.events)
	}
}
