package difftest

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"oostream/internal/event"
	"oostream/internal/plan"
)

// TestAggDifferentialTrials soaks the aggregation differential: every
// strategy (plus heartbeats, batching, provenance, and a checkpoint
// round-trip) against the brute-force window truth. The acceptance bar is ≥200 trials.
func TestAggDifferentialTrials(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			if fail := Run(Agg, GenerateAgg(seed)); fail != nil {
				t.Fatalf("%s", Shrink(fail).Report())
			}
		})
	}
}

// TestAggGeneratorCoverage asserts the aggregate trial distribution
// exercises the interesting regions: every function, SLIDE, GROUP BY,
// HAVING, trailing negation (the widened lateness bound), grouped trials
// partitionable by the GROUP BY attribute (a keyed kernel beneath grouped
// windows), streams below zero, and non-empty window truth.
func TestAggGeneratorCoverage(t *testing.T) {
	funcs := map[string]int{}
	var slide, grouped, having, trailingNeg, keyedGrouped, negative, nonEmpty int
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		c := GenerateAgg(seed)
		p, err := plan.ParseAndCompile(c.Query, Schema())
		if err != nil {
			t.Fatalf("seed %d: generated invalid query %q: %v", seed, c.Query, err)
		}
		if p.Agg == nil {
			t.Fatalf("seed %d: query %q has no aggregate spec", seed, c.Query)
		}
		funcs[string(p.Agg.Func)]++
		if p.Agg.Slide != p.Window {
			slide++
		}
		if p.Agg.GroupSlot >= 0 {
			grouped++
		}
		if p.Agg.Having != nil {
			having++
		}
		if p.HasTrailingNegation() {
			trailingNeg++
		}
		if p.Agg.GroupAttr == PartitionAttr && p.PartitionableBy(PartitionAttr) {
			keyedGrouped++
		}
		if slices.ContainsFunc(c.Arrival, func(e event.Event) bool { return e.TS < 0 }) {
			negative++
		}
		if len(aggTruth(p, sortedCopy(c))) > 0 {
			nonEmpty++
		}
	}
	for _, fn := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		if funcs[fn] == 0 {
			t.Errorf("no trial used %s", fn)
		}
	}
	for name, got := range map[string]int{
		"SLIDE": slide, "GROUP BY": grouped, "HAVING": having,
		"trailing negation": trailingNeg, "keyed grouped": keyedGrouped,
	} {
		if got < n/20 {
			t.Errorf("only %d/%d trials exercise %s", got, n, name)
		}
	}
	if nonEmpty < n/3 {
		t.Errorf("only %d/%d trials have non-empty window truth", nonEmpty, n)
	}
	// One trial in eight lies below zero: 38 of the first 300, 1 of the first 60.
	if negative == 0 || !testing.Short() && negative < n/20 {
		t.Errorf("only %d/%d trials exercise negative timestamps", negative, n)
	}
}

func sortedCopy(c Case) []event.Event {
	s := make([]event.Event, len(c.Arrival))
	copy(s, c.Arrival)
	event.SortByTime(s)
	return s
}

// TestAggTruthAtTimeLimits holds the window truth to the operator's rules at
// the ends of the time range: two A/B pairs, at +0/+20 and +30/+45, COUNT(*)
// over 100 sliding by 10, placed mid-range, at the bottom (where end − W
// would wrap) and at the top (where the last grid end saturates at
// MaxInt64). Every strategy must agree with the truth, and the truth must
// hold the windows the operator emits there. At the floor, single A's
// complete matches at MinInt64 itself and at +25: the ten windows whose start
// saturates hold the two at MinInt64 (a start that saturates lies below the
// range, not at MinInt64).
func TestAggTruthAtTimeLimits(t *testing.T) {
	const query = "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WHERE a.id = b.id WITHIN 100 SLIDE 10"
	for _, tc := range []struct {
		name             string
		base             event.Time
		windows          int
		firstEnd, endEnd event.Time
	}{
		{"mid-range", 1000, 13, 1020, 1140},
		{"bottom", math.MinInt64 + 3, 12, -9223372036854775780, -9223372036854775670},
		{"floor", math.MinInt64, 12, -9223372036854775800, -9223372036854775690},
		{"top", math.MaxInt64 - 60, 5, 9223372036854775770, math.MaxInt64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := Case{Query: query, Arrival: []event.Event{
				Ev("A", tc.base, 1, 1, 0), Ev("B", tc.base+20, 2, 1, 0),
				Ev("A", tc.base+30, 3, 2, 0), Ev("B", tc.base+45, 4, 2, 0),
			}}
			if tc.name == "floor" {
				c = Case{Query: "AGGREGATE COUNT(*) OVER SEQ(A a) WITHIN 100 SLIDE 10", Arrival: []event.Event{
					Ev("A", tc.base, 1, 1, 0), Ev("A", tc.base, 2, 2, 0), Ev("A", tc.base+25, 3, 3, 0),
				}}
			}
			p, err := plan.ParseAndCompile(c.Query, Schema())
			if err != nil {
				t.Fatal(err)
			}
			truth := aggTruth(p, sortedCopy(c))
			if len(truth) != tc.windows {
				t.Fatalf("truth has %d windows, want %d", len(truth), tc.windows)
			}
			if first, last := truth[0].Agg.WindowEnd, truth[len(truth)-1].Agg.WindowEnd; first != tc.firstEnd || last != tc.endEnd {
				t.Errorf("truth's windows end from %d to %d, want %d to %d", first, last, tc.firstEnd, tc.endEnd)
			}
			if n := truth[0].Agg.Count; tc.name == "floor" && n != 2 {
				t.Errorf("the first window counts %d, want the 2 matches at MinInt64", n)
			}
			if fail := Run(Agg, c); fail != nil {
				t.Fatalf("%s", fail.Report())
			}
		})
	}
}
