package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"oostream"
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
	comps := make([]string, n)
	used := make(map[string]bool)
	for i := range comps {
		comps[i] = types[rng.Intn(len(types))]
		used[comps[i]] = true
	}

	negated := rng.Float64() < 0.4
	negType, negVar := "", ""
	negGap := 0
	if negated {
		negType = types[rng.Intn(len(types))]
		used[negType] = true
		negVar = "n0"
		// Biased toward the trailing gap: it defers emission by a full
		// window, the widest lateness the operator must absorb.
		negGap = rng.Intn(n + 1)
		if rng.Float64() < 0.4 {
			negGap = n
		}
	}

	var parts []string
	for i := 0; i < n; i++ {
		if negated && negGap == i {
			parts = append(parts, fmt.Sprintf("!(%s %s)", negType, negVar))
		}
		parts = append(parts, fmt.Sprintf("%s x%d", comps[i], i))
	}
	if negated && negGap == n {
		parts = append(parts, fmt.Sprintf("!(%s %s)", negType, negVar))
	}
	pattern := strings.Join(parts, ", ")

	// The id-equality chain makes the query PartitionableBy("id"): the
	// kernel beneath the operator then files its state per id.
	linked := rng.Float64() < 0.7
	var conjuncts []string
	if linked {
		for i := 1; i < n; i++ {
			conjuncts = append(conjuncts, fmt.Sprintf("x0.id = x%d.id", i))
		}
		if negated {
			conjuncts = append(conjuncts, fmt.Sprintf("x0.id = %s.id", negVar))
		}
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

// RunAgg executes every engine configuration over an aggregate case and
// returns the first divergence from the brute-force window truth, or nil.
// Like Run it is a pure function of the case.
func RunAgg(c Case) *Failure {
	p, err := plan.ParseAndCompile(c.Query, Schema())
	if err != nil {
		return &Failure{Case: c, Check: "agg-compile", Diff: err.Error()}
	}
	if p.Agg == nil {
		return &Failure{Case: c, Check: "agg-compile", Diff: "query compiled without an aggregate spec"}
	}
	q, err := oostream.Compile(c.Query, Schema())
	if err != nil {
		return &Failure{Case: c, Check: "agg-compile", Diff: err.Error()}
	}

	sorted := make([]event.Event, len(c.Arrival))
	copy(sorted, c.Arrival)
	event.SortByTime(sorted)
	truth := aggTruth(p, sorted)

	fail := func(check string, got []plan.Match) *Failure {
		if ok, diff := plan.SameResults(truth, got); !ok {
			return &Failure{Case: c, Check: check, Diff: diff, Truth: len(truth)}
		}
		return nil
	}
	errf := func(check string, err error) *Failure {
		return &Failure{Case: c, Check: check, Diff: err.Error(), Truth: len(truth)}
	}

	// Every disorder-tolerant strategy on the arrival order. The
	// speculative run emits preview + revision pairs; SameResults applies
	// the retractions, so the check asserts net convergence (I7 lifted to
	// windows).
	native := oostream.Config{Strategy: oostream.StrategyNative, K: c.K}
	for _, sc := range []struct {
		check string
		cfg   oostream.Config
	}{
		{"agg-native", native},
		{"agg-kslack", oostream.Config{Strategy: oostream.StrategyKSlack, K: c.K}},
		{"agg-speculate", oostream.Config{Strategy: oostream.StrategySpeculate, K: c.K}},
		{"agg-hybrid", oostream.Config{Strategy: oostream.StrategyHybrid, K: c.K}},
	} {
		if f := fail(sc.check, run(q, sc.cfg, c.Arrival)); f != nil {
			return f
		}
	}

	// Heartbeat-insertion invariance (I9) holds through the operator.
	if f := fail("agg-native-heartbeat", runWithHeartbeats(q, native, c.Arrival, c.K)); f != nil {
		return f
	}

	// The batch path must agree (ProcessBatch contract through the
	// operator); the partition sizes derive from the seed, keeping the
	// trial pure.
	if f := fail("agg-native-batch", runAggBatched(q, native, c.Arrival, c.Seed)); f != nil {
		return f
	}

	// Provenance on: observation must not change the window multiset, and
	// every emitted window must carry a lineage record.
	pgot := run(q, oostream.Config{Strategy: oostream.StrategyNative, K: c.K, Provenance: true}, c.Arrival)
	if f := fail("agg-native-prov", pgot); f != nil {
		return f
	}
	for _, m := range pgot {
		if m.Prov == nil {
			return &Failure{Case: c, Check: "agg-native-prov", Diff: fmt.Sprintf("window %s has no lineage record", m.Agg), Truth: len(truth)}
		}
	}

	// Checkpoint/restore transparency: the operator serializes with the
	// strategy's state, sealed or previewing, and the restored run continues
	// exactly.
	speculate := oostream.Config{Strategy: oostream.StrategySpeculate, K: c.K}
	for _, leg := range []struct {
		check string
		cfg   oostream.Config
	}{{"agg-checkpoint", native}, {"agg-checkpoint-speculate", speculate}} {
		got, err := runCheckpointed(q, leg.cfg, c.Arrival)
		if err != nil {
			return errf(leg.check, err)
		}
		if f := fail(leg.check, got); f != nil {
			return f
		}
		if diff := identicalMatches(run(q, leg.cfg, c.Arrival), got); diff != "" {
			return &Failure{Case: c, Check: leg.check + "-order", Diff: diff, Truth: len(truth)}
		}
	}
	return nil
}

// runAggBatched drives the facade batch path with seed-derived batch
// boundaries (1–6 events per call).
func runAggBatched(q *oostream.Query, cfg oostream.Config, events []event.Event, seed int64) []plan.Match {
	rng := rand.New(rand.NewSource(seed ^ 0x5eedba7c4))
	en := oostream.MustNewEngine(q, cfg)
	var out []plan.Match
	for i := 0; i < len(events); {
		n := 1 + rng.Intn(6)
		if i+n > len(events) {
			n = len(events) - i
		}
		out = append(out, en.ProcessBatch(events[i:i+n])...)
		i += n
	}
	return append(out, en.Flush()...)
}
