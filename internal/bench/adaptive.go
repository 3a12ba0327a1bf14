package bench

import (
	"fmt"
	"sort"

	"oostream"
	"oostream/internal/netsim"
)

// E20Adaptive is the adaptive-disorder-control experiment: a two-phase
// drifting network (quiet, then congested) defeats every static K — a K
// sized for the quiet phase drops the congested tail, a K sized for the
// congested phase buffers the quiet majority of the stream far longer
// than needed. The adaptive controller re-derives K from the observed lag
// quantile, so it should hold BOTH a low drop rate (near the
// over-provisioned static) and a low mean buffer occupancy (near the
// under-provisioned static). The hybrid row shows the SLO-driven
// meta-engine riding the same controller.
//
// All rows run the kslack strategy (the reorder buffer makes occupancy
// directly comparable) except the hybrid row. Occupancy is StateSize
// sampled every 64 events.
func E20Adaptive(s Scale) *Table {
	q := seqQuery()
	sorted := rfidSorted(s, 41)
	var horizon oostream.Time
	if len(sorted) > 0 {
		horizon = sorted[len(sorted)-1].TS
	}
	mid := horizon / 2
	cfgNet := netsim.Config{
		Sources: 8,
		Link:    netsim.DefaultLink(),
		Drift: &netsim.DriftConfig{
			Phases: []netsim.Phase{
				{Until: mid, Link: netsim.LinkConfig{BaseDelay: 5, JitterMean: 10, HeavyTailP: 0.02, HeavyTailX: 10}},
				{Until: 0, Link: netsim.LinkConfig{BaseDelay: 10, JitterMean: 300, HeavyTailP: 0.05, HeavyTailX: 10}},
			},
			BurstP:       0.001,
			BurstMeanLen: 30,
			BurstX:       4,
		},
		Seed: 42,
	}
	delivered, delays, prof, err := netsim.Deliver(sorted, cfgNet)
	if err != nil {
		panic(err) // static config; cannot fail
	}

	// Static candidates: each phase's own p99 (what an operator tuning on
	// that phase alone would pick), the whole-trace p99 (the best single-K
	// compromise hindsight could offer), and the realized maximum (loses
	// nothing).
	kQuiet := phaseP99(delivered, delays, mid, false)
	kCongested := phaseP99(delivered, delays, mid, true)
	kGlobal := prof.DelayP99
	kMax := prof.MaxDelay

	t := &Table{
		ID:      "E20",
		Title:   "Adaptive disorder control under drifting delay (kslack)",
		Anchor:  "extension: dynamic K vs. static K when the delay distribution is non-stationary",
		Columns: []string{"config", "kev/s", "drop%", "shed", "mean_buf", "peak_state", "final_k", "max_k"},
		Notes: []string{
			"delivery profile: " + prof.String(),
			fmt.Sprintf("phase boundary at ts=%d; static candidates: quiet-p99=%d, congested-p99=%d, global-p99=%d, max=%d", mid, kQuiet, kCongested, kGlobal, kMax),
		},
	}

	// The controller tracks p99.5 with a 20% margin, re-deriving every 32
	// observations; growth is immediate but shrinking waits out 6 agreeing
	// windows so inter-burst lulls do not drag K into the next burst.
	adaptiveCfg := oostream.Adaptive{
		Enabled:       true,
		Quantile:      0.995,
		Margin:        1.2,
		MinK:          1,
		DecisionEvery: 32,
		ShrinkAfter:   6,
	}
	rows := []struct {
		label string
		cfg   oostream.Config
	}{
		{fmt.Sprintf("static K=%d (quiet p99)", kQuiet), oostream.Config{Strategy: oostream.StrategyKSlack, K: kQuiet}},
		{fmt.Sprintf("static K=%d (congested p99)", kCongested), oostream.Config{Strategy: oostream.StrategyKSlack, K: kCongested}},
		{fmt.Sprintf("static K=%d (global p99)", kGlobal), oostream.Config{Strategy: oostream.StrategyKSlack, K: kGlobal}},
		{fmt.Sprintf("static K=%d (max delay)", kMax), oostream.Config{Strategy: oostream.StrategyKSlack, K: kMax}},
		{"adaptive (seeded at quiet p99)", oostream.Config{Strategy: oostream.StrategyKSlack, K: kQuiet, Adaptive: adaptiveCfg}},
		{"hybrid adaptive (SLO latency)", oostream.Config{Strategy: oostream.StrategyHybrid, K: kQuiet,
			Adaptive: func() oostream.Adaptive {
				ac := adaptiveCfg
				ac.SLO = oostream.SLO{MaxLatency: kMax / 2}
				return ac
			}()}},
	}
	results := make([]Result, len(rows))
	meanBufs := make([]float64, len(rows))
	sides := make([]func(), len(rows))
	for i, row := range rows {
		sides[i] = func() { results[i], meanBufs[i] = runSampled(q, row.cfg, delivered) }
	}
	times := timeSides(s.Reps(), sides...)
	for i, row := range rows {
		r, meanBuf := results[i], meanBufs[i]
		dropped := r.Metrics.EventsLate + r.Metrics.SheddedEvents
		t.AddRow(row.label, spread("%.0f", kevS(len(delivered), times[i])),
			fmtF1(100*float64(dropped)/float64(len(delivered))),
			fmtU64(r.Metrics.SheddedEvents),
			fmtF1(meanBuf), fmtInt(r.Metrics.PeakState),
			fmtInt(int(r.Metrics.CurrentK)), fmtInt(int(r.Metrics.MaxK)))
	}
	return t
}

// phaseP99 is the 99th delay percentile among deliveries whose event was
// produced on one side of the phase boundary — the bound an operator would
// derive from that phase's telemetry alone.
func phaseP99(delivered []oostream.Event, delays []oostream.Time, boundary oostream.Time, after bool) oostream.Time {
	var phase []oostream.Time
	for i, e := range delivered {
		if (e.TS >= boundary) == after {
			phase = append(phase, delays[i])
		}
	}
	if len(phase) == 0 {
		return 1
	}
	sort.Slice(phase, func(a, b int) bool { return phase[a] < phase[b] })
	k := phase[len(phase)*99/100]
	if k < 1 {
		k = 1
	}
	return k
}

// runSampled drives a fresh engine per-event, sampling StateSize every 64
// events for the mean occupancy the throughput tables can't show.
func runSampled(q *oostream.Query, cfg oostream.Config, events []oostream.Event) (Result, float64) {
	en := oostream.MustNewEngine(q, cfg)
	var matches []oostream.Match
	var sumState, samples int64
	for i, e := range events {
		matches = append(matches, en.Process(e)...)
		if i%64 == 0 {
			sumState += int64(en.StateSize())
			samples++
		}
	}
	matches = append(matches, en.Flush()...)
	mean := 0.0
	if samples > 0 {
		mean = float64(sumState) / float64(samples)
	}
	return Result{Strategy: string(cfg.Strategy), Matches: matches, Metrics: en.Metrics()}, mean
}
