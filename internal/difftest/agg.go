package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"oostream/internal/event"
	"oostream/internal/fiba"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

// GenerateAgg derives an aggregate trial from a seed: a random AGGREGATE
// query (every function, optional SLIDE / GROUP BY / HAVING, optional
// negation including the trailing position that widens the lateness
// bound) over the shared trial universe, plus a disordered arrival order.
func GenerateAgg(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	query, qtypes := genAggQuery(rng)
	sorted := genStream(rng, qtypes)
	arrival, k := genDisorder(rng, sorted)
	if rng.Intn(8) == 0 {
		// One trial in eight lies below zero, where an operator whose clock
		// starts at 0 counts the first event late and seals early.
		base := -event.Time(1 + rng.Intn(1<<20))
		for i := range arrival {
			arrival[i].TS += base
		}
	}
	return Case{Seed: seed, Query: query, K: k, Arrival: arrival}
}

// genAggQuery builds a random AGGREGATE query over the trial universe.
func genAggQuery(rng *rand.Rand) (string, map[string]bool) {
	n := 2 + rng.Intn(2)
	// A negation biased toward the trailing gap: it defers emission by a
	// full window, the widest lateness the operator must absorb.
	pattern, chain, _, used := genPattern(rng, n, 0.4, 0.4)
	// The id chain: the kernel beneath the operator files its state per id.
	var conjuncts []string
	if rng.Float64() < 0.7 {
		conjuncts = chain
	}
	if rng.Float64() < 0.3 {
		i := rng.Intn(n)
		op := [...]string{"<", ">", "!="}[rng.Intn(3)]
		conjuncts = append(conjuncts, fmt.Sprintf("x%d.v %s %d", i, op, rng.Intn(valRange)))
	}

	fn := [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX"}[rng.Intn(5)]
	arg := "*"
	if fn != "COUNT" {
		arg = fmt.Sprintf("x%d.v", rng.Intn(n))
	}

	window := 4 + rng.Intn(60)
	var q strings.Builder
	fmt.Fprintf(&q, "AGGREGATE %s(%s) OVER SEQ(%s)", fn, arg, pattern)
	if len(conjuncts) > 0 {
		fmt.Fprintf(&q, " WHERE %s", strings.Join(conjuncts, " AND "))
	}
	fmt.Fprintf(&q, " WITHIN %d", window)
	if rng.Float64() < 0.5 {
		fmt.Fprintf(&q, " SLIDE %d", 1+rng.Intn(window))
	}
	if rng.Float64() < 0.5 {
		fmt.Fprintf(&q, " GROUP BY x%d.id", rng.Intn(n))
	}
	if rng.Float64() < 0.4 {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&q, " HAVING w.count >= %d", 1+rng.Intn(3))
		case 1:
			fmt.Fprintf(&q, " HAVING w.value >= %d", rng.Intn(valRange))
		default:
			fmt.Fprintf(&q, " HAVING w.value != %d", rng.Intn(valRange))
		}
	}
	return q.String(), used
}

// aggTruth computes the normative aggregate output by brute force: oracle
// pattern matches on the sorted stream, bucketed into every grid window
// that contains them with the same spec helpers the operator uses, and its
// rules at the ends of the time range: grid ends saturate at the top, and a
// window's start is end − W saturated at the bottom, except that an end
// saturated at the top (not on the grid) stands for the first grid end past
// the range, whose window starts one slide after the last grid end in it. A
// window whose start saturates begins below the range and holds MinInt64.
func aggTruth(p *plan.Plan, sorted []event.Event) []plan.Match {
	spec := p.Agg
	windowStart := func(end event.Time) event.Time {
		if end == math.MaxInt64 && end%spec.Slide != 0 {
			return end - end%spec.Slide - (p.Window - spec.Slide)
		}
		return event.SubSat(end, p.Window)
	}
	startsBefore := func(end, ts event.Time) bool {
		return end < math.MinInt64+p.Window || windowStart(end) < ts
	}
	type elem struct {
		ts    event.Time
		part  fiba.Partial
		group event.Value
	}
	var elems []elem
	for _, m := range oracle.Matches(p, sorted) {
		ts, part, g, ok := spec.ElementOf(m, nil)
		if !ok {
			continue
		}
		elems = append(elems, elem{ts, part, g})
	}
	endSet := map[event.Time]bool{}
	for _, el := range elems {
		for end := plan.AlignUp(el.ts, spec.Slide); startsBefore(end, el.ts); end = event.AddSat(end, spec.Slide) {
			endSet[end] = true
			if end == math.MaxInt64 {
				break
			}
		}
	}
	ends := make([]event.Time, 0, len(endSet))
	for end := range endSet {
		ends = append(ends, end)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })

	var out []plan.Match
	for _, end := range ends {
		var keys []event.Value
		seen := map[event.Value]bool{}
		parts := map[event.Value]fiba.Partial{}
		for _, el := range elems {
			if !startsBefore(end, el.ts) || el.ts > end {
				continue
			}
			gk := event.Value{}
			if spec.GroupSlot >= 0 {
				gk = el.group.MapKey()
			}
			if !seen[gk] {
				seen[gk] = true
				keys = append(keys, gk)
			}
			parts[gk] = parts[gk].Merge(el.part)
		}
		for _, gk := range keys {
			v, count, ok := spec.Result(parts[gk])
			if !ok {
				continue
			}
			av := &plan.AggValue{
				Func:        string(spec.Func),
				WindowStart: windowStart(end),
				WindowEnd:   end,
				Group:       gk,
				HasGroup:    spec.GroupSlot >= 0,
				Value:       v,
				Count:       count,
			}
			if !spec.EvalHaving(av, nil) {
				continue
			}
			out = append(out, plan.Match{Kind: plan.Insert, Events: []event.Event{plan.WindowEvent(end)}, Agg: av})
		}
	}
	return out
}
