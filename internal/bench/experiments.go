package bench

import (
	"fmt"

	"oostream"
	"oostream/internal/gen"
	"oostream/internal/netsim"
)

// oooRatios is the disorder sweep used by several experiments.
var oooRatios = []float64{0, 0.01, 0.05, 0.10, 0.20, 0.40}

// E1Correctness reproduces the paper's problem analysis as a table: the
// result quality of the in-order reference kernel and of each strategy on
// increasingly disordered input, scored against the exact result set (the
// reference kernel on the sorted stream). Expected shape: inorder loses
// recall as disorder grows; kslack, native, and (after convergence)
// speculate stay at 1.000/1.000.
func E1Correctness(s Scale) *Table {
	q := negQuery()
	sorted := rfidSorted(s, 1)
	truth := runReference(q, sorted)

	t := &Table{
		ID:      "E1",
		Title:   "Result correctness vs. disorder ratio",
		Anchor:  "paper §problem analysis: missed and premature output of in-order SSC",
		Columns: []string{"ooo%", "strategy", "matches", "precision", "recall"},
	}
	for _, ratio := range oooRatios {
		shuffled := disorder(sorted, ratio, defaultK, 2)
		row := func(r Result) {
			p, rec := precisionRecall(truth.Matches, r.Matches)
			t.AddRow(fmtPct(ratio), r.Strategy, fmtInt(len(keyCounts(r.Matches))), fmtF3(p), fmtF3(rec))
		}
		row(runReference(q, shuffled))
		for _, strat := range oostream.Strategies() {
			row(runOne(q, oostream.Config{Strategy: strat, K: defaultK}, shuffled))
		}
	}
	t.Notes = append(t.Notes,
		"expected: inorder degrades with disorder; kslack/native/speculate stay exact",
	)
	return t
}

// E2ThroughputVsDisorder measures CPU cost (as events/second) of the levee
// and the native kernel across the disorder sweep, both under the query's
// key, so the gap is disorder handling alone. Expected shape: native tracks
// or beats kslack and degrades gracefully with disorder. The in-order
// reference kernel is E1's and E10's correctness contrast and is not timed.
func E2ThroughputVsDisorder(s Scale) *Table {
	q := seqQuery()
	sorted := rfidSorted(s, 3)
	t := &Table{
		ID:      "E2",
		Title:   "Throughput vs. disorder ratio",
		Anchor:  "paper §experiments: CPU cost as out-of-order percentage grows",
		Columns: []string{"ooo%", "strategy", "kev/s", "matches"},
		Notes:   []string{keyNote(q)},
	}
	// Every cell alternates with every other, so a trend along the sweep is
	// not drift between its points.
	var runs []run
	for _, ratio := range oooRatios {
		shuffled := disorder(sorted, ratio, defaultK, 4)
		for _, strat := range []oostream.Strategy{oostream.StrategyKSlack, oostream.StrategyNative} {
			runs = append(runs, run{q, oostream.Config{Strategy: strat, K: defaultK}, shuffled})
		}
	}
	rs, tput := timeRuns(s, runs...)
	for i, r := range rs {
		t.AddRow(fmtPct(oooRatios[i/2]), r.Strategy, spread("%.0f", tput[i]), fmtInt(len(r.Matches)))
	}
	return t
}

// E3ThroughputVsK measures CPU cost against the slack bound K at fixed
// disorder, both strategies under the query's key. Expected shape: kslack's
// cost grows with K (bigger buffer, more queue churn); native is largely
// insensitive to K for CPU.
func E3ThroughputVsK(s Scale) *Table {
	q := seqQuery()
	sorted := rfidSorted(s, 5)
	t := &Table{
		ID:      "E3",
		Title:   "Throughput vs. slack bound K",
		Anchor:  "paper §experiments: CPU cost vs. K-slack parameter",
		Columns: []string{"K(ms)", "strategy", "kev/s"},
		Notes:   []string{keyNote(q)},
	}
	// Every cell alternates with every other, so a trend in K is not drift
	// between its points.
	var runs []run
	for _, k := range []oostream.Time{100, 500, 1_000, 5_000, 10_000} {
		shuffled := disorder(sorted, 0.10, k, 6)
		for _, strat := range []oostream.Strategy{oostream.StrategyKSlack, oostream.StrategyNative} {
			runs = append(runs, run{q, oostream.Config{Strategy: strat, K: k}, shuffled})
		}
	}
	rs, tput := timeRuns(s, runs...)
	for i, r := range rs {
		t.AddRow(fmtInt(int(runs[i].cfg.K)), r.Strategy, spread("%.0f", tput[i]))
	}
	return t
}

// E4MemoryVsK measures peak state (buffered events + stack instances)
// against K. Expected shape: kslack's buffer grows linearly with K; the
// native engine holds only pattern-relevant instances within window+K.
func E4MemoryVsK(s Scale) *Table {
	q := seqQuery()
	sorted := rfidSorted(s, 7)
	t := &Table{
		ID:      "E4",
		Title:   "Peak state vs. slack bound K",
		Anchor:  "paper §experiments: memory consumption vs. K",
		Columns: []string{"K(ms)", "strategy", "peak_state", "purged"},
	}
	for _, k := range []oostream.Time{100, 500, 1_000, 5_000, 10_000} {
		shuffled := disorder(sorted, 0.10, k, 8)
		for _, strat := range []oostream.Strategy{oostream.StrategyKSlack, oostream.StrategyNative} {
			r := runOne(q, oostream.Config{Strategy: strat, K: k}, shuffled)
			t.AddRow(fmtInt(int(k)), string(strat), fmtInt(r.Metrics.PeakState), fmtU64(r.Metrics.Purged))
		}
	}
	t.Notes = append(t.Notes, "expected: kslack peak grows ~linearly in K; native stays near rate*(W+K) of relevant types only")
	return t
}

// E5Window measures the native engine's cost and state across window
// sizes. Expected shape: both CPU and memory grow with the window (more
// live instances, larger enumeration ranges).
func E5Window(s Scale) *Table {
	sorted := rfidSorted(s, 9)
	shuffled := disorder(sorted, 0.10, defaultK, 10)
	t := &Table{
		ID:      "E5",
		Title:   "Native cost vs. window size",
		Anchor:  "paper §experiments: window parameter sweep",
		Columns: []string{"window(ms)", "kev/s", "peak_state", "matches"},
	}
	windows := []int{1_000, 5_000, 10_000, 50_000, 100_000}
	runs := make([]run, len(windows))
	for i, w := range windows {
		q := oostream.MustCompile(fmt.Sprintf(
			"PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN %d", w),
			gen.RFIDSchema())
		runs[i] = run{q, oostream.Config{Strategy: oostream.StrategyNative, K: defaultK}, shuffled}
	}
	rs, tput := timeRuns(s, runs...)
	for i, w := range windows {
		t.AddRow(fmtInt(w), spread("%.0f", tput[i]), fmtInt(rs[i].Metrics.PeakState), fmtInt(len(rs[i].Matches)))
	}
	t.Notes = append(t.Notes, keyNote(runs[0].q))
	return t
}

// E6PurgeAblation quantifies the purge algorithms: peak state and
// throughput with purging on (several cadences) and off. Expected shape:
// without purge, state grows with stream length; with purge it plateaus.
func E6PurgeAblation(s Scale) *Table {
	q := seqQuery()
	sorted := rfidSorted(s, 11)
	shuffled := disorder(sorted, 0.10, defaultK, 12)
	t := &Table{
		ID:      "E6",
		Title:   "State purging ablation (native)",
		Anchor:  "paper §state purging: minimizing memory consumption",
		Columns: []string{"purge_every", "kev/s", "peak_state", "purged"},
	}
	cadences := []int{1, 16, 64, 256, -1}
	runs := make([]run, len(cadences))
	for i, pe := range cadences {
		runs[i] = run{q, oostream.Config{Strategy: oostream.StrategyNative, K: defaultK, PurgeEvery: pe}, shuffled}
	}
	rs, tput := timeRuns(s, runs...)
	for i, pe := range cadences {
		label := fmtInt(pe)
		if pe < 0 {
			label = "never"
		}
		t.AddRow(label, spread("%.0f", tput[i]), fmtInt(rs[i].Metrics.PeakState), fmtU64(rs[i].Metrics.Purged))
	}
	t.Notes = append(t.Notes, "expected: peak_state explodes with purging disabled; cadence trades CPU for memory slack")
	return t
}

// E7OptAblation quantifies the sequence-scan optimization: triggering
// construction probes only for genuinely out-of-order insertions. A probe
// at an in-order mid-pattern insertion uselessly enumerates all
// earlier-position combinations, so the waste grows with pattern length;
// the experiment uses a four-step pattern to expose it. Expected shape:
// the optimized engine wins most at low disorder, where nearly every probe
// would be wasted.
func E7OptAblation(s Scale) *Table {
	q := oostream.MustCompile(
		"PATTERN SEQ(T1 v1, T2 v2, T3 v3, T4 v4) WHERE v1.id = v4.id WITHIN 400", nil)
	sorted := gen.Uniform(s.uniformN(), []string{"T1", "T2", "T3", "T4"}, 4, 10, 13)
	t := &Table{
		ID:      "E7",
		Title:   "Sequence-scan optimization ablation (native)",
		Anchor:  "paper §optimizations for sequence scan and construction",
		Columns: []string{"ooo%", "variant", "kev/s", "probes", "empty_probes", "matches"},
	}
	for _, ratio := range oooRatios {
		shuffled := disorder(sorted, ratio, 200, 14)
		rs, tput := timeRuns(s,
			run{q, oostream.Config{Strategy: oostream.StrategyNative, K: 200}, shuffled},
			run{q, oostream.Config{Strategy: oostream.StrategyNative, K: 200, DisableTriggerOpt: true}, shuffled})
		for i, variant := range []string{"optimized", "probe-always"} {
			t.AddRow(fmtPct(ratio), variant, spread("%.0f", tput[i]),
				fmtU64(rs[i].Metrics.Probes), fmtU64(rs[i].Metrics.EmptyProbes), fmtInt(len(rs[i].Matches)))
		}
	}
	t.Notes = append(t.Notes, keyNote(q),
		"probes/empty_probes are deterministic: the optimization's saving is the probe-always empty_probes surplus")
	return t
}

// E8Latency measures result latency (logical time between a match's last
// event timestamp and the clock at emission) across K. Expected shape:
// kslack pays ~K on every result; native pays nothing on in-order results
// and only the actual delay on disorder-affected ones.
func E8Latency(s Scale) *Table {
	q := seqQuery()
	sorted := rfidSorted(s, 15)
	t := &Table{
		ID:      "E8",
		Title:   "Result latency vs. slack bound K",
		Anchor:  "paper §experiments: output latency of levee vs. native",
		Columns: []string{"K(ms)", "strategy", "lat_mean(ms)", "lat_p99(ms)", "lat_max(ms)"},
	}
	for _, k := range []oostream.Time{500, 2_000, 10_000} {
		shuffled := disorder(sorted, 0.10, k, 16)
		for _, strat := range []oostream.Strategy{oostream.StrategyKSlack, oostream.StrategyNative, oostream.StrategySpeculate} {
			r := runOne(q, oostream.Config{Strategy: strat, K: k}, shuffled)
			lat := r.Metrics.LogicalLat
			t.AddRow(fmtInt(int(k)), string(strat),
				fmtF1(lat.Mean()), fmtU64(lat.Quantile(0.99)), fmtU64(lat.Max))
		}
	}
	t.Notes = append(t.Notes, "expected: kslack mean ~K; native mean << K (only disorder-affected results wait)")
	return t
}

// E9PatternLength measures throughput as the pattern grows from 2 to 6
// positive components over a uniform stream. Expected shape: cost grows
// with length (more stacks, deeper construction), for every strategy.
func E9PatternLength(s Scale) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Throughput vs. pattern length",
		Anchor:  "paper §experiments: query complexity scaling",
		Columns: []string{"len", "key", "strategy", "kev/s", "matches"},
		Notes:   []string{"key: the attribute the kernel groups the stacks by (none: unkeyed), the same for both strategies of a length"},
	}
	allTypes := []string{"T1", "T2", "T3", "T4", "T5", "T6"}
	events := gen.Uniform(s.uniformN(), allTypes, 4, 10, 17)
	shuffled := gen.Shuffle(events, gen.Disorder{Ratio: 0.10, MaxDelay: 200, Seed: 18})
	for n := 2; n <= 6; n++ {
		src := "PATTERN SEQ("
		for i := 0; i < n; i++ {
			if i > 0 {
				src += ", "
			}
			src += fmt.Sprintf("T%d v%d", i+1, i+1)
		}
		src += ") WHERE v1.id = v2.id WITHIN 400"
		q := oostream.MustCompile(src, nil)
		rs, tput := timeRuns(s,
			run{q, oostream.Config{Strategy: oostream.StrategyKSlack, K: 200}, shuffled},
			run{q, oostream.Config{Strategy: oostream.StrategyNative, K: 200}, shuffled})
		for i, r := range rs {
			t.AddRow(fmtInt(n), keyOf(q), r.Strategy, spread("%.0f", tput[i]), fmtInt(len(r.Matches)))
		}
	}
	return t
}

// E10Negation focuses on the shoplifting query: correctness and sealing
// latency of the in-order reference kernel and every strategy under
// disorder, and the strategies' throughput (the reference kernel is the
// correctness contrast and is not timed). Expected shape: inorder produces
// false positives (premature output); native is exact with sealing latency
// ~K; speculate is exact after retractions with zero insert latency.
func E10Negation(s Scale) *Table {
	q := negQuery()
	sorted := rfidSorted(s, 19)
	shuffled := disorder(sorted, 0.10, defaultK, 20)
	truth := runReference(q, sorted)
	t := &Table{
		ID:      "E10",
		Title:   "Negation query under disorder",
		Anchor:  "paper §problem analysis + §sequence construction: negation needs sealing",
		Columns: []string{"strategy", "kev/s", "precision", "recall", "retracts", "lat_mean(ms)"},
	}
	var runs []run
	for _, strat := range oostream.Strategies() {
		runs = append(runs, run{q, oostream.Config{Strategy: strat, K: defaultK}, shuffled})
	}
	rs, tput := timeRuns(s, runs...)
	rs = append([]Result{runReference(q, shuffled)}, rs...)
	for i, r := range rs {
		kev := "-"
		if i > 0 {
			kev = spread("%.0f", tput[i-1])
		}
		p, rec := precisionRecall(truth.Matches, r.Matches)
		t.AddRow(r.Strategy, kev, fmtF3(p), fmtF3(rec),
			fmtU64(r.Metrics.Retractions), fmtF1(r.Metrics.LogicalLat.Mean()))
	}
	t.Notes = append(t.Notes, keyNote(q))
	return t
}

// E11Speculation measures the aggressive extension across disorder ratios:
// how much premature output it produces (retraction rate) and what it costs.
// Expected shape: retractions grow with disorder; throughput stays close to
// native; converged results stay exact (precision/recall 1).
func E11Speculation(s Scale) *Table {
	q := negQuery()
	sorted := rfidSorted(s, 21)
	truth := runReference(q, sorted)
	t := &Table{
		ID:      "E11",
		Title:   "Speculative output and compensation",
		Anchor:  "extension: aggressive strategy (ICDE'09 follow-up) vs. conservative sealing",
		Columns: []string{"ooo%", "inserts", "retracts", "retract_rate", "kev/s", "precision", "recall"},
	}
	runs := make([]run, len(oooRatios))
	for i, ratio := range oooRatios {
		runs[i] = run{q, oostream.Config{Strategy: oostream.StrategySpeculate, K: defaultK}, disorder(sorted, ratio, defaultK, 22)}
	}
	rs, tput := timeRuns(s, runs...)
	for i, ratio := range oooRatios {
		r := rs[i]
		inserts := r.Metrics.Matches
		retracts := r.Metrics.Retractions
		rate := 0.0
		if inserts > 0 {
			rate = float64(retracts) / float64(inserts)
		}
		p, rec := precisionRecall(truth.Matches, r.Matches)
		t.AddRow(fmtPct(ratio), fmtU64(inserts), fmtU64(retracts), fmtF3(rate),
			spread("%.0f", tput[i]), fmtF3(p), fmtF3(rec))
	}
	t.Notes = append(t.Notes, keyNote(q))
	return t
}

// E12NetworkSim replaces synthetic disorder injection with the mechanistic
// delivery model of internal/netsim (link jitter + source failure bursts —
// the disorder causes the paper's introduction names) and asks the
// provisioning question a deployment faces: how large must K be, relative
// to the realized delay distribution, for each strategy to stay exact, and
// what does each K cost in latency and drops. Expected shape: K at the
// realized max keeps everyone exact; K at p99 drops the burst tail (late
// events) and costs recall for all strategies equally; native's latency
// advantage over kslack persists at every K.
func E12NetworkSim(s Scale) *Table {
	q := seqQuery()
	sorted := rfidSorted(s, 23)
	delivered, _, prof, err := netsim.Deliver(sorted, netsim.Config{
		Sources: 8,
		Link:    netsim.DefaultLink(),
		Failure: netsim.FailureConfig{MTBF: 60_000, OutageMean: 2_000},
		Seed:    24,
	})
	if err != nil {
		panic(err) // static config; cannot fail
	}
	truth := runReference(q, sorted)
	t := &Table{
		ID:      "E12",
		Title:   "Strategies under simulated network delivery",
		Anchor:  "paper §introduction: disorder from network latency and machine failure (substituted trace)",
		Columns: []string{"K", "strategy", "kev/s", "late", "precision", "recall", "lat_mean(ms)"},
		Notes: []string{
			"delivery profile: " + prof.String(),
			keyNote(q),
		},
	}
	var (
		runs   []run
		labels []string
	)
	for _, k := range []oostream.Time{prof.DelayP99, prof.MaxDelay} {
		label := fmt.Sprintf("p99(%d)", k)
		if k == prof.MaxDelay {
			label = fmt.Sprintf("max(%d)", k)
		}
		for _, strat := range []oostream.Strategy{oostream.StrategyKSlack, oostream.StrategyNative, oostream.StrategySpeculate} {
			runs = append(runs, run{q, oostream.Config{Strategy: strat, K: k}, delivered})
			labels = append(labels, label)
		}
	}
	rs, tput := timeRuns(s, runs...)
	for i, r := range rs {
		p, rec := precisionRecall(truth.Matches, r.Matches)
		t.AddRow(labels[i], r.Strategy, spread("%.0f", tput[i]), fmtU64(r.Metrics.EventsLate),
			fmtF3(p), fmtF3(rec), fmtF1(r.Metrics.LogicalLat.Mean()))
	}
	return t
}

// E16Observability prices the live observability layer on the native
// engine: a registry-bound metric series, then a trace hook on top,
// against the uninstrumented engine. Counters are single-writer atomics
// and the nil trace hook is one predictable branch, so the expected shape
// is overhead within a few percent at both steps.
func E16Observability(s Scale) *Table {
	q := seqQuery()
	events := disorder(rfidSorted(s, 61), 0.20, defaultK, 62)
	t := &Table{
		ID:      "E16",
		Title:   "Observability overhead (native engine)",
		Anchor:  "extension: live metrics registry + trace hooks behind Config",
		Columns: []string{"instrumentation", "kev/s", "overhead%"},
	}
	modes := []string{"off", "registry", "registry+trace"}
	runs := make([]run, len(modes))
	for i, mode := range modes {
		cfg := oostream.Config{Strategy: oostream.StrategyNative, K: defaultK}
		switch mode {
		case "registry":
			cfg.Observer = oostream.NewObserver()
		case "registry+trace":
			cfg.Observer = oostream.NewObserver()
			cfg.Trace = oostream.NewFlightRecorder(256)
		}
		runs[i] = run{q, cfg, events}
	}
	_, tput := timeRuns(s, runs...)
	for i, mode := range modes {
		over := overhead(tput[i], tput[0])
		t.AddRow(mode, spread("%.0f", tput[i]), spread("%.1f", over))
	}
	t.Notes = append(t.Notes,
		"expected: a few percent at most; series counters are uncontended atomics, the trace fast path is one branch")
	return t
}

// E18Batch prices the batched admission path: the native engine driven
// through ProcessBatch at sweep batch sizes against the per-event
// degenerate case (batch=1). The batch entry amortizes purge scans and gauge
// publication across the batch; output is identical to per-event processing
// by the ProcessBatch contract (proved by internal/difftest's Batch mode), and
// each row re-asserts result equality against the batch=1 run.
func E18Batch(s Scale) *Table {
	q := seqQuery()
	events := disorder(rfidSorted(s, 71), 0.20, defaultK, 72)
	t := &Table{
		ID:      "E18",
		Title:   "Batched admission throughput vs. batch size",
		Anchor:  "extension: first-class ProcessBatch with batch≡per-event semantics",
		Columns: []string{"batch", "kev/s", "speedup", "exact"},
	}
	sizes := []int{1, 16, 256, 4096}
	cfg := oostream.Config{Strategy: oostream.StrategyNative, K: defaultK}
	results := make([][]oostream.Match, len(sizes))
	sides := make([]func(), len(sizes))
	for i, size := range sizes {
		sides[i] = func() {
			en := oostream.MustNewEngine(q, cfg)
			var ms []oostream.Match
			for lo := 0; lo < len(events); lo += size {
				hi := min(lo+size, len(events))
				ms = append(ms, en.ProcessBatch(events[lo:hi])...)
			}
			results[i] = append(ms, en.Flush()...)
		}
	}
	times := timeSides(s.Reps(), sides...)
	base := kevS(len(events), times[0])
	for i, size := range sizes {
		tput := kevS(len(events), times[i])
		exact, _ := oostream.SameResults(results[0], results[i])
		t.AddRow(fmtInt(size), spread("%.0f", tput),
			spread("%.2f", ratio(tput, base)),
			fmt.Sprintf("%v", exact))
	}
	t.Notes = append(t.Notes,
		"expected: throughput grows with batch size as purge/gauge amortization kicks in, flattening once per-event admission dominates; exact stays true at every size")
	return t
}
