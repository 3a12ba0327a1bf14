package difftest

import (
	"fmt"
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
			if fail := RunAgg(GenerateAgg(seed)); fail != nil {
				t.Fatalf("%s", fail.Report())
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
