package core

import (
	"runtime"
	"slices"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

// countEvals swaps every cross predicate of p for a copy that adds one to
// *n per evaluation (predicate.Compiled.Counted): per program run, and per
// comparison of loaded sides for a pair. Call it before building an engine
// on p.
func countEvals(p *plan.Plan, n *uint64) {
	for i := range p.Cross {
		p.Cross[i].Pred = p.Cross[i].Pred.Counted(n)
	}
}

// countLoads makes every pair of p add one to *n per side it loads
// (predicate.Compiled.LoadsCounted). Call it before building an engine on p.
func countLoads(p *plan.Plan, n *uint64) {
	for i := range p.Cross {
		p.Cross[i].Pred = p.Cross[i].Pred.LoadsCounted(n)
	}
}

// countUntyped makes every pair of p add one to *n per candidate its
// pre-filter or bound fold takes one at a time instead of in a float64 loop
// (predicate.Compiled.UntypedCounted). Call it before building an engine
// on p.
func countUntyped(p *plan.Plan, n *uint64) {
	for i := range p.Cross {
		p.Cross[i].Pred = p.Cross[i].Pred.UntypedCounted(n)
	}
}

// TestHoistedPredicateEvaluatedOnce pins the evaluation count of a
// trigger-pair predicate. `c.missing > a.missing` errors on every
// evaluation, so PredErrors counts them: one per distinct (trigger,
// candidate) pair at the levels a walk revisits, not one per visit.
func TestHoistedPredicateEvaluatedOnce(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WHERE c.missing > a.missing WITHIN 1000")
	en := MustNew(p, Options{K: 100, PurgeEvery: -1})
	steps := []struct {
		typ   string
		ts    event.Time
		evals uint64
		why   string
	}{
		{"A", 10, 0, "in order, not last: no trigger"},
		{"A", 20, 0, ""},
		{"B", 30, 0, ""},
		{"B", 40, 0, ""},
		{"C", 50, 2, "c triggers: A20 and A10 come up under B40 and again under B30"},
		{"C", 60, 2, "the same two a-candidates, for a new trigger"},
		{"A", 5, 2, "late a triggers: C50 and C60 come up under B30 and again under B40"},
		{"B", 35, 6, "late b triggers: {a,c} is no trigger pair, and each of 3x2 (a,c) comes up once"},
	}
	var before uint64
	for i, st := range steps {
		if out := en.Process(kev(st.typ, st.ts, event.Seq(i+1), nil)); len(out) != 0 {
			t.Fatalf("%s@%d: %d matches from a predicate that always errors", st.typ, st.ts, len(out))
		}
		after := en.Metrics().PredErrors
		if got := after - before; got != st.evals {
			t.Errorf("%s@%d: %d evaluations, want %d (%s)", st.typ, st.ts, got, st.evals, st.why)
		}
		before = after
	}
}

// TestHoistedVerdictsMatchUnhoisted: on a V-shape whose {a,c} predicate
// passes for some candidates, fails for some and errors for others, the
// walk's matches are the oracle's — construct must not carry a pass list
// from one trigger (or one key group) to the next.
func TestHoistedVerdictsMatchUnhoisted(t *testing.T) {
	p := compile(t, "PATTERN SEQ(T a, T b, T c) WHERE a.id = b.id AND b.id = c.id "+
		"AND b.v < a.v - 1 AND c.v > a.v + 1 WITHIN 60")
	sorted := gen.Uniform(400, []string{"T"}, 3, 4, 21)
	for i := range sorted {
		if i%11 == 0 {
			continue // no v: the value predicates error on this event
		}
		// gen.Uniform gives each event only "id", which sorts before "v".
		sorted[i].Attrs = append(sorted[i].Attrs, event.Attr{Name: "v", Value: event.Int(int64(i*7919) % 10)})
	}
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: 40, Seed: 5})
	keyed := drain(t, p, Options{K: 40}, shuffled)
	if len(keyed) == 0 {
		t.Fatal("stream produced no match: the test checks nothing")
	}
	unkeyed := drain(t, withoutKey(p), Options{K: 40}, shuffled)
	if ok, diff := plan.SameResults(unkeyed, keyed); !ok {
		t.Fatalf("keyed != unkeyed:\n%s", diff)
	}
	if ok, diff := plan.SameResults(oracle.Matches(p, sorted), keyed); !ok {
		t.Fatalf("keyed != oracle:\n%s", diff)
	}
}

// TestTriggerWithoutMatchAllocFree: the pass lists are engine scratch. Once
// grown, a construction that completes no match allocates nothing.
func TestTriggerWithoutMatchAllocFree(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WHERE a.v > b.v AND c.v > a.v + 3 WITHIN 1000000")
	var evals uint64
	countEvals(p, &evals)
	en := MustNew(p, Options{K: 0, PurgeEvery: -1})
	seq := event.Seq(0)
	feed := func(typ string, ts event.Time, v int64) {
		seq++
		en.Process(kev(typ, ts, seq, event.Attrs{"v": event.Int(v)}))
	}
	for i := 0; i < 100; i++ {
		feed("A", event.Time(i), int64(5+i%3))
	}
	for i := 0; i < 100; i++ {
		feed("B", event.Time(200+i), int64(i%5))
	}
	// c.v = 0 exceeds no a.v + 3: every a in reach fails its trigger pair.
	feed("C", 1000, 0)
	st := en.kstacks.Group(event.Value{})
	trigger := st.Stack(2).Len() - 1
	before := evals
	allocs := testing.AllocsPerRun(50, func() {
		if out := en.construct(st, event.Value{}, 2, trigger, nil); len(out) != 0 {
			t.Fatalf("got %d matches, want none", len(out))
		}
	})
	if allocs != 0 {
		t.Errorf("construct allocated %.1f times per trigger, want 0", allocs)
	}
	// 51 runs (one warm-up), 100 a-candidates in reach, one evaluation each.
	if got := evals - before; got != 51*100 {
		t.Errorf("%d evaluations over 51 triggers, want %d", got, 51*100)
	}
}

// TestHoistedChecksNarrowInTurn: two trigger-pair predicates at one level,
// a pair and one with no pair form, in either order. prefilter applies them
// one after another, the second only to what the first passed, so the
// matches (the oracle's), PredErrors and evaluations are those of testing
// each candidate against both in turn, as one loop per candidate did
// before; w is missing on one event in nine, so each predicate errs.
func TestHoistedChecksNarrowInTurn(t *testing.T) {
	for _, tc := range []struct {
		where       string
		errs, evals uint64
	}{
		{"c.w * 2 > a.w AND c.v > a.v + 1", 498, 24006},
		{"c.v > a.v + 1 AND c.w * 2 > a.w", 195, 20967},
	} {
		p := compile(t, "PATTERN SEQ(A a, B b, C c) WHERE "+tc.where+" WITHIN 200")
		var evals uint64
		countEvals(p, &evals)
		sorted := gen.Uniform(600, []string{"A", "B", "C"}, 3, 5, 7)
		for i := range sorted {
			sorted[i].Attrs = append(sorted[i].Attrs, event.Attr{Name: event.Intern("v"), Value: event.Int(int64(i*7919) % 13)})
			if i%9 != 0 {
				sorted[i].Attrs = append(sorted[i].Attrs, event.Attr{Name: event.Intern("w"), Value: event.Float(float64(i*104729%17) / 2)})
			}
		}
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 50, Seed: 3})
		en := MustNew(p, Options{K: 50})
		out := engine.Drain(en, shuffled)
		if ok, diff := plan.SameResults(oracle.Matches(p, sorted), out); !ok {
			t.Fatalf("%s: engine != oracle:\n%s", tc.where, diff)
		}
		if errs := en.Metrics().PredErrors; len(out) != 2740 || errs != tc.errs || evals != tc.evals {
			t.Errorf("%s: %d matches, %d predicate errors, %d evaluations; want 2740, %d, %d", tc.where, len(out), errs, evals, tc.errs, tc.evals)
		}
	}
}

// countEvalsByMask is countEvals with one counter per cross predicate,
// keyed by the slots it reads.
func countEvalsByMask(p *plan.Plan) map[uint64]*uint64 {
	n := make(map[uint64]*uint64)
	for i := range p.Cross {
		c := new(uint64)
		n[p.Cross[i].Mask] = c
		p.Cross[i].Pred = p.Cross[i].Pred.Counted(c)
	}
	return n
}

// TestTriggerThatCannotCompleteWalksNothing pins the early return: a trigger
// evaluates its trigger-pair predicate once per candidate in reach and, when
// none passes or a level has nothing in reach, walks no level — the
// predicate over {a, b}, which only the walk evaluates, is never reached.
func TestTriggerThatCannotCompleteWalksNothing(t *testing.T) {
	const ab, ac = 1<<0 | 1<<1, 1<<0 | 1<<2
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WHERE a.v > b.v AND c.v > a.v + 3 WITHIN 1000")
	evals := countEvalsByMask(p)
	en := MustNew(p, Options{K: 2000, PurgeEvery: -1})
	steps := []struct {
		typ    string
		ts     event.Time
		v      int64
		ab, ac uint64
		why    string
	}{
		{"A", 10, 9, 0, 0, "in order, not last: no trigger"},
		{"A", 20, 9, 0, 0, ""},
		{"A", 30, 9, 0, 0, ""},
		{"B", 40, 1, 0, 0, ""},
		{"A", 50, 9, 0, 0, "after the latest b: out of every c's reach"},
		{"C", 60, 0, 0, 3, "no a in reach passes: A10, A20 and A30 evaluated once, no level walked"},
		{"C", 1045, 20, 0, 0, "B40 is below 1045 − 1000: the b level is empty, nothing evaluated"},
		{"A", 1040, 1, 0, 0, "late a: no b after it, the b level is empty going up"},
		{"A", 35, 2, 0, 1, "late a: C60 in reach (C1045 is past 35 + 1000) and not above a.v + 3"},
	}
	probes := en.Metrics().Probes
	for i, st := range steps {
		beforeAB, beforeAC := *evals[ab], *evals[ac]
		if out := en.Process(kev(st.typ, st.ts, event.Seq(i+1), event.Attrs{"v": event.Int(st.v)})); len(out) != 0 {
			t.Fatalf("%s@%d: %d matches, want none", st.typ, st.ts, len(out))
		}
		if got := *evals[ab] - beforeAB; got != st.ab {
			t.Errorf("%s@%d: %d evaluations of a.v > b.v, want %d (%s)", st.typ, st.ts, got, st.ab, st.why)
		}
		if got := *evals[ac] - beforeAC; got != st.ac {
			t.Errorf("%s@%d: %d evaluations of c.v > a.v + 3, want %d (%s)", st.typ, st.ts, got, st.ac, st.why)
		}
	}
	m := en.Metrics()
	if m.Probes-probes != 4 || m.EmptyProbes != m.Probes {
		t.Errorf("probes %d (empty %d), want 4 probes, all empty: a trigger that stops early is still an empty probe", m.Probes-probes, m.EmptyProbes)
	}
}

// vshape is the repository benchmark's stock-vshape-native workload on its
// own: the same query, K, generator and disorder.
func vshape(tb testing.TB) (*plan.Plan, []event.Event, event.Time) {
	tb.Helper()
	p, err := plan.ParseAndCompile("PATTERN SEQ(TRADE a, TRADE b, TRADE c) WHERE a.sym = b.sym AND b.sym = c.sym "+
		"AND b.price < a.price - 3 AND c.price > a.price + 3 WITHIN 2000", nil)
	if err != nil {
		tb.Fatal(err)
	}
	const k = 500
	return p, gen.Shuffle(gen.Stock(gen.DefaultStock(12000, 1)), gen.Disorder{Ratio: 0.2, MaxDelay: k, Seed: 2}), k
}

// TestVShapeCounts is the host-independent gate on the construction's unit of
// work on stock-vshape-native: its matches and probes are fixed by the
// stream, and the evaluations, walk visits and pair loads an event costs may
// not rise above what loaded pair sides, the level skip (25.47 evaluations;
// 83.60 and 71.83 visits before them), the pass-list floor, loading each
// side once per push and each distinct operand once per shared stack
// reached (11.70 visits, 3.00 loads; 13.70, 43.4 and 4.00 before); nor may
// the candidates the pre-filter and the bound folds take one at a time rise
// above what their float64 loops over the ticks' prices reached (0.01;
// 30.80, all of them, before);
// nor the stack inserts an event and the peak of live instances above what
// one stack for the three TRADE positions reached.
func TestVShapeCounts(t *testing.T) {
	p, stream, k := vshape(t)
	var evals, loads, untyped uint64
	countEvals(p, &evals)
	countLoads(p, &loads)
	countUntyped(p, &untyped)
	en := MustNew(p, Options{K: k})
	matches := len(engine.Drain(en, stream))
	m := en.Metrics()
	if matches != 3731 || m.Probes != 16596 || m.EmptyProbes != 16065 {
		t.Errorf("%d matches, %d probes (%d empty), want 3731, 16596 (16065)", matches, m.Probes, m.EmptyProbes)
	}
	perEvent := float64(evals) / float64(len(stream))
	visits := float64(en.visited) / float64(len(stream))
	loadsPerEvent := float64(loads) / float64(len(stream))
	untypedPerEvent := float64(untyped) / float64(len(stream))
	t.Logf("%.2f evaluations, %.2f candidates taken one at a time, %.2f walk visits, %.2f pair loads per event", perEvent, untypedPerEvent, visits, loadsPerEvent)
	if perEvent > 25.47 {
		t.Errorf("%.2f evaluations per event, want at most 25.47", perEvent)
	}
	if untypedPerEvent > 0.01 {
		t.Errorf("%.2f candidates taken one at a time per event, want at most 0.01", untypedPerEvent)
	}
	if visits > 11.70 {
		t.Errorf("%.2f walk visits per event, want at most 11.70", visits)
	}
	if loadsPerEvent > 3 {
		t.Errorf("%.2f pair loads per event, want at most 3.00", loadsPerEvent)
	}
	// The three positions admit every tick and share one stack: each is
	// pushed once (3.00 a tick with a stack per position) and held once
	// (peak 745 live instances with one per position). Without a negation,
	// Purged counts stack instances only.
	inserts := float64(m.Purged+uint64(en.liveStack)) / float64(len(stream))
	t.Logf("%.2f stack inserts per event, peak %d live instances", inserts, m.PeakState)
	if inserts > 1 {
		t.Errorf("%.2f stack inserts per event, want at most 1.00", inserts)
	}
	if m.PeakState != 316 {
		t.Errorf("peak %d live instances, want 316", m.PeakState)
	}
}

// TestTickWithoutPrice: on the V-shape stream one tick lacks price, so the
// pre-filter and the bound folds take every run that holds it, and every
// run with it as the partner, one candidate at a time instead of in their
// float64 loops, raising its errors. Matches, PredErrors and evaluations
// are those of taking every run one at a time, per event and batched.
func TestTickWithoutPrice(t *testing.T) {
	for _, batched := range []bool{false, true} {
		p, stream, k := vshape(t)
		var evals, untyped uint64
		countEvals(p, &evals)
		countUntyped(p, &untyped)
		stream = slices.Clone(stream)
		e := &stream[len(stream)/2]
		e.Attrs = slices.DeleteFunc(slices.Clone(e.Attrs), func(a event.Attr) bool { return a.Name == "price" })
		en := MustNew(p, Options{K: k})
		matches := 0
		if batched {
			for i := 0; i < len(stream); i += 64 {
				matches += len(en.ProcessBatch(stream[i:min(i+64, len(stream))]))
			}
			matches += len(en.Flush())
		} else {
			matches = len(engine.Drain(en, stream))
		}
		if errs := en.Metrics().PredErrors; matches != 3731 || errs != 163 || evals != 305831 {
			t.Errorf("batched %v: %d matches, %d predicate errors, %d evaluations; want 3731, 163, 305831", batched, matches, errs, evals)
		}
		t.Logf("batched %v: %d candidates taken one at a time", batched, untyped)
		if untyped == 0 || untyped > evals/100 {
			t.Errorf("batched %v: %d candidates taken one at a time beside %d evaluations, want some, up to 1 %%", batched, untyped, evals)
		}
	}
}

var sinkMatches int

// BenchmarkConstructVShape is the construction DFS of the repository
// benchmark's stock-vshape-native workload on its own (no decode, no
// rendering): go test -run '^$' -bench ConstructVShape ./internal/core.
// evals/event, untyped/event (the candidates taken one at a time),
// loads/event, visits/event and matches/op are exact and repeat;
// allocs/match nearly so; ns/event is the host's.
func BenchmarkConstructVShape(b *testing.B) {
	p, stream, k := vshape(b)
	var evals, loads, untyped uint64
	countEvals(p, &evals)
	countLoads(p, &loads)
	countUntyped(p, &untyped)
	visits := benchConstruct(b, p, stream, k)
	events := float64(b.N) * float64(len(stream))
	b.ReportMetric(float64(evals)/events, "evals/event")
	b.ReportMetric(float64(untyped)/events, "untyped/event")
	b.ReportMetric(float64(loads)/events, "loads/event")
	b.ReportMetric(float64(visits)/events, "visits/event")
}

// BenchmarkConstructFanout is the kernel on the repository benchmark's
// uniform-fanout-native workload, where emission is the largest layer:
// go test -run '^$' -bench ConstructFanout ./internal/core.
func BenchmarkConstructFanout(b *testing.B) {
	p, stream, k := fanout(b)
	benchConstruct(b, p, stream, k)
}

// benchConstruct runs stream through a fresh engine per op and reports
// matches/op, allocs/match (every allocation of the op, the engine's
// construction included, over the matches it returns) and ns/event. It
// returns the walk visits of all ops.
func benchConstruct(b *testing.B, p *plan.Plan, stream []event.Event, k event.Time) (visits uint64) {
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		en := MustNew(p, Options{K: k})
		for _, e := range stream {
			matches += len(en.Process(e))
		}
		matches += len(en.Flush())
		visits += en.visited
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	sinkMatches = matches
	events := float64(b.N) * float64(len(stream))
	b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(max(matches, 1)), "allocs/match")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	return visits
}
