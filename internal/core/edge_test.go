package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

// Edge-condition tests: parameter extremes and degenerate streams that
// historically break stream engines (tie storms, zero slack, boundary
// windows, negative timestamps).

func TestAllEventsSameTimestamp(t *testing.T) {
	// Strict sequence order means a tie storm can never match a 2-step
	// pattern, regardless of arrival order or predicates.
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	en := MustNew(p, Options{K: 10})
	var out []plan.Match
	for i := 0; i < 200; i++ {
		typ := "A"
		if i%2 == 1 {
			typ = "B"
		}
		out = append(out, en.Process(event.Event{Type: typ, TS: 42, Seq: event.Seq(i + 1)})...)
	}
	out = append(out, en.Flush()...)
	if len(out) != 0 {
		t.Fatalf("tie storm produced %d matches", len(out))
	}
}

func TestZeroSlackRequiresInOrder(t *testing.T) {
	// K=0: any regression of the clock is late and dropped; sorted input
	// remains exact.
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	sorted := gen.Uniform(200, []string{"A", "B"}, 3, 5, 91)
	want := oracle.Matches(p, sorted)
	got := drain(t, p, Options{K: 0}, sorted)
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("K=0 on sorted input:\n%s", diff)
	}
	// An out-of-order event is dropped, not mis-processed.
	en := MustNew(p, Options{K: 0})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	en.Process(event.Event{Type: "A", TS: 5, Seq: 2})
	if en.Metrics().EventsLate != 1 {
		t.Error("clock regression under K=0 must count late")
	}
}

func TestWindowOne(t *testing.T) {
	// Window 1: only adjacent-timestamp pairs match.
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 1")
	en := MustNew(p, Options{K: 100})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	out := en.Process(event.Event{Type: "B", TS: 11, Seq: 2})
	if len(out) != 1 {
		t.Fatalf("span 1 <= window 1 should match: %v", out)
	}
	out = en.Process(event.Event{Type: "B", TS: 12, Seq: 3})
	if len(out) != 0 {
		t.Fatalf("span 2 > window 1 matched: %v", out)
	}
}

func TestNegativeTimestamps(t *testing.T) {
	// Logical time is int64; nothing assumes positivity.
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	en := MustNew(p, Options{K: 50})
	en.Process(event.Event{Type: "A", TS: -500, Seq: 1})
	out := en.Process(event.Event{Type: "B", TS: -450, Seq: 2})
	if len(out) != 1 {
		t.Fatalf("negative timestamps: %v", out)
	}
	if en.Metrics().EventsLate != 0 {
		t.Error("no late events expected")
	}
}

func TestSingleEventPatternUnderDisorder(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a) WHERE a.id = 1 WITHIN 10")
	sorted := gen.Uniform(100, []string{"A", "B"}, 3, 4, 93)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.5, MaxDelay: 20, Seed: 94})
	want := oracle.Matches(p, sorted)
	got := drain(t, p, Options{K: 20}, shuffled)
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("single-step pattern:\n%s", diff)
	}
}

func TestAdjacentNegationsSameGap(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), !(M m), B b) WITHIN 100")
	// Either negative type in the gap suppresses.
	base := []event.Event{
		{Type: "A", TS: 10, Seq: 1},
		{Type: "B", TS: 50, Seq: 2},
	}
	if got := drain(t, p, Options{K: 100}, base); len(got) != 1 {
		t.Fatalf("clean gap: %v", got)
	}
	withN := append([]event.Event{{Type: "N", TS: 30, Seq: 3}}, base...)
	if got := drain(t, p, Options{K: 100}, withN); len(got) != 0 {
		t.Fatalf("N in gap: %v", got)
	}
	withM := append([]event.Event{{Type: "M", TS: 30, Seq: 3}}, base...)
	if got := drain(t, p, Options{K: 100}, withM); len(got) != 0 {
		t.Fatalf("M in gap: %v", got)
	}
}

func TestSameTypePositiveAndNegative(t *testing.T) {
	// The same event type can be a positive component and a negated one;
	// an event then lands in a stack AND a negative store.
	p := compile(t, "PATTERN SEQ(T a, !(T n), T b) WHERE n.x > 5 WITHIN 100")
	mk := func(ts event.Time, seq event.Seq, x int64) event.Event {
		return event.Event{Type: "T", TS: ts, Seq: seq,
			Attrs: event.Attrs{"x": event.Int(x)}.List()}
	}
	// Middle event fails the negation's local predicate (x <= 5) but is a
	// valid positive: matches (1,2), (2,3), (1,3).
	events := []event.Event{mk(10, 1, 1), mk(20, 2, 2), mk(30, 3, 3)}
	want := oracle.Matches(p, events)
	got := drain(t, p, Options{K: 50}, events)
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("dual-role type:\n%s", diff)
	}
	if len(got) != 3 {
		t.Fatalf("matches = %d, want 3", len(got))
	}
	// Now the middle event qualifies as a negative: only (1,2) and (2,3)
	// survive (the (1,3) combination is invalidated).
	events2 := []event.Event{mk(10, 1, 1), mk(20, 2, 9), mk(30, 3, 3)}
	want2 := oracle.Matches(p, events2)
	got2 := drain(t, p, Options{K: 50}, events2)
	if ok, diff := plan.SameResults(want2, got2); !ok {
		t.Fatalf("dual-role with qualifying negative:\n%s", diff)
	}
	if len(got2) != 2 {
		t.Fatalf("matches = %d, want 2", len(got2))
	}
}

func TestLargeKNeverPurgesDuringRun(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	sorted := gen.Uniform(500, []string{"A", "B"}, 3, 5, 95)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 100, Seed: 96})
	want := oracle.Matches(p, sorted)
	got := drain(t, p, Options{K: 1 << 40, PurgeEvery: 1}, shuffled)
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("huge K:\n%s", diff)
	}
}

// TestVulnerableSealedAtMaxClock: a heartbeat at the top of the timestamp
// range seals every vulnerable match, as any smaller one past the seal does.
// The pass used to pop the expiry order below safe+1, which wraps there.
func TestVulnerableSealedAtMaxClock(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, C c, !(B b)) WITHIN 100")
	for _, clock := range []event.Time{1000, math.MaxInt64} {
		en := MustNew(p, Options{K: 0, Emit: EmitThenRetract})
		en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
		if out := en.Process(event.Event{Type: "C", TS: 20, Seq: 2}); len(out) != 1 {
			t.Fatalf("want the match out ahead of its seal, got %v", out)
		}
		if v := en.StateSnapshot().Vulnerable; v != 1 {
			t.Fatalf("before the heartbeat: %d vulnerable, want 1", v)
		}
		en.Advance(clock)
		if v, n := en.StateSnapshot().Vulnerable, en.StateSize(); v != 0 || n != 0 {
			t.Errorf("Advance(%d): %d vulnerable, state size %d; want 0 and 0", clock, v, n)
		}
		if err := en.CheckDue(); err != nil {
			t.Errorf("Advance(%d): %v", clock, err)
		}
	}
}

// TestTimeLimits pins both ends of the time range against the oracle: the
// walks' window bounds, the safe clock, the purge horizons and the gaps of a
// leading or trailing negation saturate instead of wrapping. The stream spans
// 180 ms ending at the top of the range or starting at its bottom, and
// arrives in order, in reverse and in seeded shuffles, purging after every
// event, under both emission policies.
func TestTimeLimits(t *testing.T) {
	const k = 200
	rel := []struct {
		typ string
		at  event.Time
	}{{"A", 0}, {"A", 30}, {"B", 50}, {"N", 60}, {"B", 90}, {"A", 120}, {"N", 125}, {"B", 180}}
	for _, base := range []event.Time{math.MaxInt64 - 180, math.MinInt64} {
		sorted := make([]event.Event, len(rel))
		for i, r := range rel {
			sorted[i] = event.Event{Type: r.typ, TS: base + r.at, Seq: event.Seq(i + 1)}
		}
		orders := [][]event.Event{sorted, slices.Clone(sorted)}
		slices.Reverse(orders[1])
		for seed := int64(0); seed < 20; seed++ {
			shuffled := slices.Clone(sorted)
			rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			orders = append(orders, shuffled)
		}
		for _, q := range []string{
			"PATTERN SEQ(A a, B b) WITHIN 100",
			"PATTERN SEQ(A a, B b, !(N n)) WITHIN 100",
			"PATTERN SEQ(!(N n), A a, B b) WITHIN 100",
		} {
			p := compile(t, q)
			want := oracle.Matches(p, sorted)
			if len(want) == 0 {
				t.Fatalf("%s at %d: the oracle finds nothing to compare", q, base)
			}
			for _, emit := range []EmitPolicy{SealThenEmit, EmitThenRetract} {
				for i, in := range orders {
					en := MustNew(p, Options{K: k, Emit: emit, PurgeEvery: 1})
					got := engine.Drain(en, in)
					if ok, diff := plan.SameResults(want, got); !ok {
						t.Fatalf("%s at %d, %s, order %d: %d matches, oracle %d:\n%s", q, base, emit, i, len(got), len(want), diff)
					}
					if late := en.Metrics().EventsLate; late != 0 {
						t.Fatalf("%s at %d, %s, order %d: %d late events inside K", q, base, emit, i, late)
					}
				}
			}
		}
	}
	// An event the whole range behind the clock is late, and its lag
	// saturates at the top of the range instead of wrapping below zero.
	for _, emit := range []EmitPolicy{SealThenEmit, EmitThenRetract} {
		en := MustNew(compile(t, "PATTERN SEQ(A a, B b) WITHIN 100"), Options{K: k, Emit: emit})
		en.Process(event.Event{Type: "A", TS: math.MaxInt64, Seq: 1})
		en.Process(event.Event{Type: "B", TS: math.MinInt64, Seq: 2})
		if m := en.Metrics(); m.EventsLate != 1 || m.WatermarkLag.Max != math.MaxInt64 {
			t.Errorf("%s: an event the range behind: late %d, lag %d; want 1 and MaxInt64", emit, m.EventsLate, m.WatermarkLag.Max)
		}
	}
}

func TestDuplicateSeqDoesNotCrash(t *testing.T) {
	// Callers are told to provide unique seqs; duplicates degrade match
	// identity but must not corrupt the engine.
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	en := MustNew(p, Options{K: 50})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	en.Process(event.Event{Type: "A", TS: 12, Seq: 1})
	out := en.Process(event.Event{Type: "B", TS: 20, Seq: 2})
	if len(out) != 2 {
		t.Fatalf("matches = %d", len(out))
	}
}

// TestSoakLongStream is a longer-haul exercise (skipped with -short): a
// quarter-million-event disordered stream through every ablation variant,
// checking exactness against the in-order engine on the sorted stream and
// that state stays bounded throughout.
func TestSoakLongStream(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id WITHIN 200")
	sorted := gen.Uniform(250_000, []string{"A", "B", "N", "X"}, 40, 4, 101)
	const k = 300
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.25, MaxDelay: k, Seed: 102})

	want := oracle.Matches(p, sorted)
	for _, opts := range []Options{
		{K: k},
		{K: k, DisableTriggerOpt: true, PurgeEvery: 1},
	} {
		en := MustNew(p, opts)
		var got []plan.Match
		for _, e := range shuffled {
			got = append(got, en.Process(e)...)
		}
		got = append(got, en.Flush()...)
		if ok, diff := plan.SameResults(want, got); !ok {
			t.Fatalf("soak %+v: wrong results:\n%s", opts, diff)
		}
		if peak := en.Metrics().PeakState; peak > 5_000 {
			t.Fatalf("soak %+v: peak state %d not bounded", opts, peak)
		}
	}
}

// TestNegativeOnTheGapBound puts a negative at the upper bound of a
// match's negation gap and one tick to either side, arriving when the safe
// clock is one tick below the bound. The gap is open, so only the negative
// one tick inside it (admitted: it is at the safe clock) withdraws the
// match. Sealing the binding one tick early — at safe+1 — emits it as final
// before that negative arrives. Each row runs under both emission policies,
// event by event and as one batch, and must net the oracle's count.
func TestNegativeOnTheGapBound(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	const k = 10
	for _, tc := range []struct {
		neg  event.Time
		want int
	}{
		{49, 0}, // inside the gap (0, 50): the match is withdrawn
		{50, 1}, // on the bound: outside the open gap
		{51, 1},
	} {
		arrival := []event.Event{
			{Type: "A", TS: 0, Seq: 1},
			{Type: "A", TS: 59, Seq: 2}, // safe clock 49
			{Type: "B", TS: 50, Seq: 3}, // binds a@0: gap (0, 50), sealing at 50
			{Type: "N", TS: tc.neg, Seq: 4},
		}
		sorted := slices.Clone(arrival)
		slices.SortFunc(sorted, byTSSeq)
		if n := len(oracle.Matches(p, sorted)); n != tc.want {
			t.Fatalf("negative at %d: the oracle finds %d matches, want %d", tc.neg, n, tc.want)
		}
		for _, emit := range []EmitPolicy{SealThenEmit, EmitThenRetract} {
			for _, batch := range []bool{false, true} {
				en := MustNew(p, Options{K: k, Emit: emit})
				var out []plan.Match
				if batch {
					out = en.ProcessBatch(arrival)
				} else {
					for _, e := range arrival {
						out = append(out, en.Process(e)...)
					}
				}
				out = append(out, en.Flush()...)
				net := 0
				for _, m := range out {
					if m.Kind == plan.Retract {
						net--
					} else {
						net++
					}
				}
				if late := en.Metrics().EventsLate; net != tc.want || late != 0 {
					t.Errorf("negative at %d, %s, batch %t: net %d matches (%d late), want %d", tc.neg, emit, batch, net, late, tc.want)
				}
			}
		}
	}
}
