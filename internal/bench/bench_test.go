package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRunAtSmokeScale(t *testing.T) {
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tbl := exp.Run(Smoke)
			if tbl.ID != exp.ID {
				t.Errorf("table ID = %q, want %q", tbl.ID, exp.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(tbl.Columns))
				}
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), exp.ID) {
				t.Error("render missing experiment ID")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("E3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

// cell finds the value at (rowMatch, col) in a table.
func cell(t *testing.T, tbl *Table, match func(row []string) bool, col string) string {
	t.Helper()
	colIdx := -1
	for i, c := range tbl.Columns {
		if c == col {
			colIdx = i
		}
	}
	if colIdx < 0 {
		t.Fatalf("column %q not found in %v", col, tbl.Columns)
	}
	for _, row := range tbl.Rows {
		if match(row) {
			return row[colIdx]
		}
	}
	t.Fatalf("no row matched in %s", tbl.ID)
	return ""
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestE1Shape checks the headline claim: exact strategies stay exact under
// disorder while the naive engine degrades.
func TestE1Shape(t *testing.T) {
	tbl := E1Correctness(Smoke)
	at := func(ratio, strat string) (p, r float64) {
		match := func(row []string) bool { return row[0] == ratio && row[1] == strat }
		return parseF(t, cell(t, tbl, match, "precision")), parseF(t, cell(t, tbl, match, "recall"))
	}
	for _, strat := range []string{"kslack", "native", "speculate"} {
		p, r := at("20%", strat)
		if p < 0.9999 || r < 0.9999 {
			t.Errorf("%s at 20%% disorder: precision=%.3f recall=%.3f, want exact", strat, p, r)
		}
	}
	_, naiveRecall := at("20%", "inorder")
	if naiveRecall > 0.99 {
		t.Errorf("inorder recall at 20%% disorder = %.3f; expected visible degradation", naiveRecall)
	}
	// At zero disorder everyone is exact.
	for _, strat := range []string{"inorder", "kslack", "native", "speculate"} {
		p, r := at("0%", strat)
		if p < 0.9999 || r < 0.9999 {
			t.Errorf("%s at 0%%: precision=%.3f recall=%.3f", strat, p, r)
		}
	}
}

// TestE8Shape checks the latency claim: the levee pays ~K, native does not.
func TestE8Shape(t *testing.T) {
	tbl := E8Latency(Smoke)
	match := func(k, strat string) func([]string) bool {
		return func(row []string) bool { return row[0] == k && row[1] == strat }
	}
	kslackMean := parseF(t, cell(t, tbl, match("10000", "kslack"), "lat_mean(ms)"))
	nativeMean := parseF(t, cell(t, tbl, match("10000", "native"), "lat_mean(ms)"))
	if kslackMean < 5_000 {
		t.Errorf("kslack mean latency at K=10000 is %.1f, expected ~K", kslackMean)
	}
	if nativeMean > kslackMean/4 {
		t.Errorf("native mean latency %.1f not clearly below kslack %.1f", nativeMean, kslackMean)
	}
}

// TestE6Shape checks that disabling purge blows up state.
func TestE6Shape(t *testing.T) {
	tbl := E6PurgeAblation(Smoke)
	never := parseF(t, cell(t, tbl, func(r []string) bool { return r[0] == "never" }, "peak_state"))
	eager := parseF(t, cell(t, tbl, func(r []string) bool { return r[0] == "1" }, "peak_state"))
	if never < 5*eager {
		t.Errorf("purge ablation: never=%v eager=%v, expected blow-up", never, eager)
	}
}

// TestE11Shape checks that retractions appear under disorder and converge.
func TestE11Shape(t *testing.T) {
	tbl := E11Speculation(Smoke)
	at := func(ratio, col string) float64 {
		return parseF(t, cell(t, tbl, func(r []string) bool { return r[0] == ratio }, col))
	}
	if at("0%", "retracts") != 0 {
		t.Error("no disorder should mean no retractions")
	}
	if at("40%", "retracts") == 0 {
		t.Error("heavy disorder should force retractions")
	}
	if at("40%", "precision") < 0.9999 || at("40%", "recall") < 0.9999 {
		t.Error("converged speculative output must be exact")
	}
}

// TestE4Shape checks the memory claim: kslack buffer grows with K and
// dominates native at large K.
func TestE4Shape(t *testing.T) {
	tbl := E4MemoryVsK(Smoke)
	at := func(k, strat string) float64 {
		return parseF(t, cell(t, tbl, func(r []string) bool { return r[0] == k && r[1] == strat }, "peak_state"))
	}
	if at("10000", "kslack") <= at("100", "kslack") {
		t.Error("kslack peak state should grow with K")
	}
	if at("10000", "kslack") <= at("10000", "native") {
		t.Error("at large K the reorder buffer should dominate native state")
	}
}

// TestTimeSides holds the one timing routine: every side runs once per rep,
// in the order given, rep after rep, and each side gets one wall time per
// rep; the quartiles interpolate between closest ranks.
func TestTimeSides(t *testing.T) {
	var order []string
	times := timeSides(3,
		func() { order = append(order, "a") },
		func() { order = append(order, "b") },
		func() { order = append(order, "c") })
	if got, want := strings.Join(order, ""), "abcabcabc"; got != want {
		t.Errorf("run order %q, want %q", got, want)
	}
	if len(times) != 3 {
		t.Fatalf("%d sides timed, want 3", len(times))
	}
	for i, ts := range times {
		if len(ts) != 3 {
			t.Errorf("side %d has %d wall times, want 3", i, len(ts))
		}
	}

	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{9, 1, 8, 2, 7, 3, 6, 4, 5}, 3, 5, 7},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{30, 10, 20}, 15, 20, 25},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 3.25, 5.5, 7.75},
		{[]float64{42}, 42, 42, 42},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if got, want := spread("%.1f", []float64{30, 10, 20}), "20.0 [15.0–25.0]"; got != want {
		t.Errorf("spread = %q, want %q", got, want)
	}
}

// TestE7Shape checks the scan optimization's deterministic evidence: probe
// counts repeat exactly across runs, the optimized engine probes less than
// probe-always at every ratio, and both find the same matches.
func TestE7Shape(t *testing.T) {
	first, second := E7OptAblation(Smoke), E7OptAblation(Smoke)
	col := func(tbl *Table, ratio, variant, name string) string {
		return cell(t, tbl, func(r []string) bool { return r[0] == ratio && r[1] == variant }, name)
	}
	for _, ratio := range []string{"0%", "1%", "5%", "10%", "20%", "40%"} {
		for _, variant := range []string{"optimized", "probe-always"} {
			for _, name := range []string{"probes", "empty_probes", "matches"} {
				if a, b := col(first, ratio, variant, name), col(second, ratio, variant, name); a != b {
					t.Errorf("%s %s %s: %s then %s, want a count that repeats", ratio, variant, name, a, b)
				}
			}
		}
		opt, always := parseF(t, col(first, ratio, "optimized", "probes")), parseF(t, col(first, ratio, "probe-always", "probes"))
		if opt >= always {
			t.Errorf("%s: optimized probes %v, probe-always %v; want fewer", ratio, opt, always)
		}
		if a, b := col(first, ratio, "optimized", "matches"), col(first, ratio, "probe-always", "matches"); a != b {
			t.Errorf("%s: optimized finds %s matches, probe-always %s", ratio, a, b)
		}
	}
}

// TestE10Shape checks the negation claim: the four strategies are exact
// under 10 % disorder and the in-order reference kernel emits false
// positives.
func TestE10Shape(t *testing.T) {
	tbl := E10Negation(Smoke)
	at := func(strat, col string) float64 {
		return parseF(t, cell(t, tbl, func(r []string) bool { return r[0] == strat }, col))
	}
	for _, strat := range []string{"kslack", "native", "speculate", "hybrid"} {
		if p, r := at(strat, "precision"), at(strat, "recall"); p != 1 || r != 1 {
			t.Errorf("%s: precision=%.3f recall=%.3f, want exact", strat, p, r)
		}
	}
	if p := at("inorder", "precision"); p >= 1 {
		t.Errorf("inorder precision at 10%% disorder = %.3f, want below 1", p)
	}
}

func BenchmarkE20Adaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		E20Adaptive(Smoke)
	}
}

func BenchmarkE21Aggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		E21FibaAggregation(Smoke)
	}
}

func BenchmarkE22LatencyAttribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		E22LatencyAttribution(Smoke)
	}
}

// TestE22Shape checks the latency-attribution experiment's invariants:
// sampled rows carry span counts and stay exact, and the deeper sampling
// rate opens proportionally more spans.
func TestE22Shape(t *testing.T) {
	tbl := E22LatencyAttribution(Smoke)
	at := func(mode, col string) string {
		return cell(t, tbl, func(r []string) bool { return r[0] == mode }, col)
	}
	if at("1/256", "exact") != "true" || at("1/16", "exact") != "true" {
		t.Error("sampling must not change match output")
	}
	coarse := parseF(t, at("1/256", "spans"))
	dense := parseF(t, at("1/16", "spans"))
	if coarse <= 0 || dense < 8*coarse {
		t.Errorf("span counts: 1/256=%v 1/16=%v, want ~16x more at 1/16", coarse, dense)
	}
}
