package bench

import (
	"fmt"

	"oostream"
)

// E22LatencyAttribution prices the wall-clock latency-attribution sampler
// (DESIGN.md §15) on the native engine: sampling off against 1-in-256 and
// 1-in-16 deterministic sampling over a disordered workload. The off path
// is a single masked-compare branch per event and allocates nothing (the
// root-level allocation test pins that to exactly zero), so the expected
// shape is overhead within noise at 1-in-256 and at most a few percent at
// 1-in-16. Sampled rows also report the wall-latency quantiles the sampler
// measured; every sampled row re-asserts result equality against the off
// run (sampling must never perturb matches).
func E22LatencyAttribution(s Scale) *Table {
	q := seqQuery()
	events := disorder(rfidSorted(s, 91), 0.20, defaultK, 92)
	t := &Table{
		ID:      "E22",
		Title:   "Wall-clock latency attribution overhead (native engine)",
		Anchor:  "extension: sampled per-event stage spans + SLO burn tracking behind Config.Latency",
		Columns: []string{"sampling", "kev/s", "overhead%", "wall_p50_us", "wall_p95_us", "wall_p99_us", "spans", "exact"},
	}
	every := []int{0, 256, 16}
	labels := []string{"off", "1/256", "1/16"}
	results := make([][]oostream.Match, len(every))
	reports := make([]*oostream.LatencyReport, len(every))
	sides := make([]func(), len(every))
	for i, n := range every {
		cfg := oostream.Config{Strategy: oostream.StrategyNative, K: defaultK,
			Latency: oostream.Latency{SampleEvery: n}}
		sides[i] = func() {
			en := oostream.MustNewEngine(q, cfg)
			results[i] = en.ProcessAll(events)
			reports[i] = en.LatencyReport()
		}
	}
	times := timeSides(s.Reps(), sides...)
	base := kevS(len(events), times[0])
	for i, label := range labels {
		tput := kevS(len(events), times[i])
		over := overhead(tput, base)
		wall := []string{"-", "-", "-", "-"}
		exact := "-"
		if r := reports[i]; r != nil {
			wall = []string{fmtU64(r.Wall.P50Us), fmtU64(r.Wall.P95Us), fmtU64(r.Wall.P99Us),
				fmtU64(r.SpansSampled)}
			ok, _ := oostream.SameResults(results[0], results[i])
			exact = fmt.Sprintf("%v", ok)
		}
		t.AddRow(label, spread("%.0f", tput), spread("%.1f", over), wall[0], wall[1], wall[2], wall[3], exact)
	}
	t.Notes = append(t.Notes,
		"expected: 1/256 within noise of off (≤1%), 1/16 a few percent; exact stays true — sampling never changes matches",
		"wall quantiles are µs over sampled spans only; the off row has none by construction")
	return t
}
