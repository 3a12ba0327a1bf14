package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
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

func drain(t *testing.T, p *plan.Plan, opts Options, events []event.Event) []plan.Match {
	t.Helper()
	en, err := New(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Drain(en, events)
}

var testQueries = []string{
	"PATTERN SEQ(A a, B b) WITHIN 50",
	"PATTERN SEQ(A a, B b, C c) WITHIN 80",
	"PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100",
	"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = n.id WITHIN 60",
	"PATTERN SEQ(!(N n), A a, B b) WITHIN 60",
	"PATTERN SEQ(A a, B b, !(N n)) WITHIN 40",
	"PATTERN SEQ(T a, T b) WITHIN 30",
	"PATTERN SEQ(A a) WITHIN 10",
	"PATTERN SEQ(A a, B b, C c) WHERE a.id = b.id AND b.id = c.id WITHIN 120",
}

var testTypes = []string{"A", "B", "C", "N", "T"}

// TestEquivalenceWithOracleUnderDisorder is invariant I1: on any K-bounded
// shuffle, the native engine emits exactly the oracle's result set for the
// sorted stream.
func TestEquivalenceWithOracleUnderDisorder(t *testing.T) {
	for _, q := range testQueries {
		p := compile(t, q)
		for seed := int64(0); seed < 6; seed++ {
			sorted := gen.Uniform(150, testTypes, 3, 6, seed)
			k := event.Time(40)
			shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: k, Seed: seed + 100})
			want := oracle.Matches(p, sorted)
			got := drain(t, p, Options{K: k}, shuffled)
			if ok, diff := plan.SameResults(want, got); !ok {
				t.Fatalf("%s seed %d: native != oracle (%d vs %d):\n%s", q, seed, len(want), len(got), diff)
			}
		}
	}
}

func TestEquivalenceProperty(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id WITHIN 40")
	f := func(seed int64, ratioRaw uint8) bool {
		sorted := gen.Uniform(100, []string{"A", "B", "N"}, 2, 5, seed)
		k := event.Time(30)
		ratio := float64(ratioRaw%101) / 100
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: ratio, MaxDelay: k, Seed: seed + 1})
		want := oracle.Matches(p, sorted)
		got := drain(t, p, Options{K: k}, shuffled)
		ok, _ := plan.SameResults(want, got)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestExactlyOnce is invariant I2: no duplicate matches under any
// interleaving.
func TestExactlyOnce(t *testing.T) {
	for _, q := range testQueries {
		p := compile(t, q)
		for seed := int64(0); seed < 6; seed++ {
			sorted := gen.Uniform(200, testTypes, 3, 6, seed)
			shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.5, MaxDelay: 50, Seed: seed})
			got := drain(t, p, Options{K: 50}, shuffled)
			seen := make(map[string]bool, len(got))
			for _, m := range got {
				if seen[m.Key()] {
					t.Fatalf("%s seed %d: duplicate match %s", q, seed, m)
				}
				seen[m.Key()] = true
			}
		}
	}
}

// TestAblationsAgree: disabling the trigger optimization or purging (or
// purging eagerly) must not change the result set, only cost.
func TestAblationsAgree(t *testing.T) {
	variants := []Options{
		{K: 40},
		{K: 40, DisableTriggerOpt: true},
		{K: 40, PurgeEvery: -1},
		{K: 40, PurgeEvery: 1},
		{K: 40, DisableTriggerOpt: true, PurgeEvery: 1},
	}
	for _, q := range testQueries {
		p := compile(t, q)
		sorted := gen.Uniform(200, testTypes, 3, 6, 42)
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 40, Seed: 1})
		base := drain(t, p, variants[0], shuffled)
		for _, opts := range variants[1:] {
			got := drain(t, p, opts, shuffled)
			if ok, diff := plan.SameResults(base, got); !ok {
				t.Fatalf("%s: variant %+v differs:\n%s", q, opts, diff)
			}
		}
	}
}

func TestLateMiddleEventCompletesMatch(t *testing.T) {
	// SEQ(A,B,C): C arrives before B; the late B must trigger the match.
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WITHIN 100")
	en := MustNew(p, Options{K: 50})
	if out := en.Process(event.Event{Type: "A", TS: 10, Seq: 1}); len(out) != 0 {
		t.Fatal("premature")
	}
	if out := en.Process(event.Event{Type: "C", TS: 30, Seq: 3}); len(out) != 0 {
		t.Fatal("C alone cannot match")
	}
	out := en.Process(event.Event{Type: "B", TS: 20, Seq: 2}) // late middle
	if len(out) != 1 {
		t.Fatalf("late middle event should complete the match, got %v", out)
	}
	if out[0].Key() != "1|2|3" {
		t.Errorf("match = %v", out[0])
	}
}

func TestLateFirstEventCompletesMatch(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	en := MustNew(p, Options{K: 50})
	en.Process(event.Event{Type: "B", TS: 20, Seq: 2})
	out := en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	if len(out) != 1 || out[0].Key() != "1|2" {
		t.Fatalf("late first event: %v", out)
	}
}

func TestLateLastEventTriggersNormally(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	en := MustNew(p, Options{K: 50})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	en.Process(event.Event{Type: "A", TS: 40, Seq: 3})        // advances clock
	out := en.Process(event.Event{Type: "B", TS: 20, Seq: 2}) // late last
	if len(out) != 1 || out[0].Key() != "1|2" {
		t.Fatalf("late last event: %v", out)
	}
}

func TestLateNegativeSuppressesPendingMatch(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	en := MustNew(p, Options{K: 50})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	out := en.Process(event.Event{Type: "B", TS: 30, Seq: 2})
	if len(out) != 0 {
		t.Fatal("match must wait for the negation gap to seal")
	}
	// The negative arrives late, inside the gap.
	out = en.Process(event.Event{Type: "N", TS: 20, Seq: 3})
	out = append(out, en.Flush()...)
	if len(out) != 0 {
		t.Fatalf("late negative should suppress the match, got %v", out)
	}
}

func TestNegationSealsWhenSafeClockPasses(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	en := MustNew(p, Options{K: 20})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	en.Process(event.Event{Type: "B", TS: 30, Seq: 2})
	// Gap seals at hi=30; safe must reach 30, i.e. clock 50.
	if out := en.Process(event.Event{Type: "A", TS: 45, Seq: 3}); len(out) != 0 {
		t.Fatal("safe=25 < 30: must still pend")
	}
	out := en.Process(event.Event{Type: "A", TS: 55, Seq: 4})
	if len(out) != 1 || out[0].Key() != "1|2" {
		t.Fatalf("safe=35 >= 30: should emit, got %v", out)
	}
	s := en.Metrics()
	if s.LogicalLat.Max < 25 {
		t.Errorf("sealing latency should reflect waiting, got %d", s.LogicalLat.Max)
	}
}

func TestLateEventDroppedUnderDropPolicy(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	en := MustNew(p, Options{K: 10})
	en.Process(event.Event{Type: "A", TS: 100, Seq: 1})
	out := en.Process(event.Event{Type: "A", TS: 50, Seq: 2}) // delay 50 > K=10
	if len(out) != 0 {
		t.Fatal("late event must not match")
	}
	s := en.Metrics()
	if s.EventsLate != 1 {
		t.Errorf("EventsLate = %d", s.EventsLate)
	}
	if en.StateSize() != 1 {
		t.Errorf("late event stored: state = %d", en.StateSize())
	}
}

func TestPurgeBoundsStateUnderDisorder(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100")
	sorted := gen.Uniform(20_000, []string{"A", "B"}, 50, 5, 3)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.2, MaxDelay: 200, Seed: 4})
	en := MustNew(p, Options{K: 200, PurgeEvery: 16})
	for _, e := range shuffled {
		en.Process(e)
	}
	s := en.Metrics()
	// Window+K spans ~300 time units at mean gap ~5.5 => ~60 events in
	// horizon; peak state must be in that order of magnitude, not O(n).
	if s.PeakState > 600 {
		t.Errorf("peak state = %d, purge not bounding memory", s.PeakState)
	}
	if s.Purged == 0 {
		t.Error("nothing purged")
	}
}

func TestNoPurgeGrowsState(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 10")
	sorted := gen.Uniform(2_000, []string{"A", "B"}, 4, 5, 3)
	withPurge := MustNew(p, Options{K: 20, PurgeEvery: 1})
	noPurge := MustNew(p, Options{K: 20, PurgeEvery: -1})
	for _, e := range sorted {
		withPurge.Process(e)
		noPurge.Process(e)
	}
	if noPurge.Metrics().PeakState < 10*withPurge.Metrics().PeakState {
		t.Errorf("purge ablation: with=%d without=%d",
			withPurge.Metrics().PeakState, noPurge.Metrics().PeakState)
	}
}

func TestInOrderStreamZeroLatency(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	sorted := gen.Uniform(500, []string{"A", "B"}, 2, 5, 9)
	en := MustNew(p, Options{K: 100})
	for _, e := range sorted {
		en.Process(e)
	}
	s := en.Metrics()
	if s.Matches == 0 {
		t.Fatal("no matches in sanity stream")
	}
	// Without negation, in-order results are emitted the moment they
	// complete: no K-slack latency tax (the paper's key latency claim).
	if s.LogicalLat.Max != 0 {
		t.Errorf("native latency on in-order stream = %d, want 0", s.LogicalLat.Max)
	}
}

func TestInvalidOptions(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a) WITHIN 10")
	if _, err := New(p, Options{K: -1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := New(p, Options{K: 1, Emit: EmitPolicy(7)}); err == nil {
		t.Error("bad emission policy accepted")
	}
}

func TestIrrelevantAndConstFalse(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a) WHERE 1 = 2 WITHIN 10")
	en := MustNew(p, Options{K: 5})
	if out := en.Process(event.Event{Type: "A", TS: 1, Seq: 1}); len(out) != 0 {
		t.Fatal("ConstFalse emitted")
	}
	en2 := MustNew(compile(t, "PATTERN SEQ(A a) WITHIN 10"), Options{K: 5})
	en2.Process(event.Event{Type: "Z", TS: 1, Seq: 1})
	if en2.Metrics().Irrelevant != 1 {
		t.Error("irrelevant not counted")
	}
}

func TestRepeatedTypeUnderDisorder(t *testing.T) {
	p := compile(t, "PATTERN SEQ(T a, T b) WHERE b.id > a.id WITHIN 50")
	sorted := gen.Uniform(150, []string{"T"}, 5, 5, 21)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: 30, Seed: 5})
	want := oracle.Matches(p, sorted)
	got := drain(t, p, Options{K: 30}, shuffled)
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("repeated type: %s", diff)
	}
}

func TestAdversarialInterleavings(t *testing.T) {
	// Exhaustive permutations of a tiny stream (delays within K) must all
	// converge to the same result set.
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	events := []event.Event{
		{Type: "A", TS: 10, Seq: 1},
		{Type: "N", TS: 20, Seq: 2},
		{Type: "B", TS: 30, Seq: 3},
		{Type: "A", TS: 25, Seq: 4},
		{Type: "B", TS: 50, Seq: 5},
	}
	want := oracle.Matches(p, events)
	perm := make([]event.Event, len(events))
	var rec func(used []bool, depth int)
	count := 0
	rec = func(used []bool, depth int) {
		if depth == len(events) {
			got := drain(t, p, Options{K: 1000}, perm)
			if ok, diff := plan.SameResults(want, got); !ok {
				t.Fatalf("permutation %v differs:\n%s", perm, diff)
			}
			count++
			return
		}
		for i, u := range used {
			if u {
				continue
			}
			used[i] = true
			perm[depth] = events[i]
			rec(used, depth+1)
			used[i] = false
		}
	}
	rec(make([]bool, len(events)), 0)
	if count != 120 {
		t.Fatalf("tested %d permutations", count)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WITHIN 60")
	sorted := gen.Uniform(300, []string{"A", "B", "C"}, 3, 5, 13)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 40, Seed: 6})
	a := drain(t, p, Options{K: 40}, shuffled)
	b := drain(t, p, Options{K: 40}, shuffled)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("order differs at %d", i)
		}
	}
}

func TestStressRandomSmallStreams(t *testing.T) {
	// Many tiny random streams across random K values, checked against the
	// oracle — a fuzz net for edge cases (ties, empty stacks, adjacent
	// negations).
	queries := []string{
		"PATTERN SEQ(A a, B b) WITHIN 7",
		"PATTERN SEQ(A a, !(N n), B b) WITHIN 9",
		"PATTERN SEQ(A a, B b, !(N n)) WITHIN 6",
		"PATTERN SEQ(!(N n), A a) WITHIN 5",
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		q := queries[rng.Intn(len(queries))]
		p := compile(t, q)
		n := rng.Intn(12) + 2
		events := make([]event.Event, n)
		for i := range events {
			events[i] = event.Event{
				Type: []string{"A", "B", "N"}[rng.Intn(3)],
				TS:   event.Time(rng.Intn(15)),
				Seq:  event.Seq(i + 1),
			}
		}
		event.SortByTime(events)
		for i := range events {
			events[i].Seq = event.Seq(i + 1)
		}
		shuffled := gen.Shuffle(events, gen.Disorder{Ratio: 0.6, MaxDelay: 15, Seed: int64(trial)})
		want := oracle.Matches(p, events)
		got := drain(t, p, Options{K: 15, PurgeEvery: 1}, shuffled)
		if ok, diff := plan.SameResults(want, got); !ok {
			t.Fatalf("trial %d %s events=%v:\n%s", trial, q, shuffled, diff)
		}
	}
}

func TestProbeCountersQuantifyOptimization(t *testing.T) {
	// The optimization's benefit is deterministic in the probe counters:
	// probe-always fires a probe per insertion, the optimized engine only
	// for final-position or out-of-order insertions — and both enumerate
	// the same matches.
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WITHIN 80")
	sorted := gen.Uniform(500, []string{"A", "B", "C"}, 3, 5, 77)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.1, MaxDelay: 40, Seed: 78})

	opt := MustNew(p, Options{K: 40})
	noopt := MustNew(p, Options{K: 40, DisableTriggerOpt: true})
	for _, e := range shuffled {
		opt.Process(e)
		noopt.Process(e)
	}
	so, sn := opt.Metrics(), noopt.Metrics()
	if sn.Probes <= so.Probes {
		t.Errorf("probe-always should probe more: %d vs %d", sn.Probes, so.Probes)
	}
	if sn.EmptyProbes <= so.EmptyProbes {
		t.Errorf("probe-always should waste more probes: %d vs %d", sn.EmptyProbes, so.EmptyProbes)
	}
	if got, want := sn.Probes-sn.EmptyProbes, so.Probes-so.EmptyProbes; got != want {
		t.Errorf("productive probes must agree: %d vs %d", got, want)
	}
}
