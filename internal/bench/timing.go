package bench

import (
	"fmt"
	"slices"
	"time"
)

// Reps is how many times each compared side of a timing cell runs: 3 at
// Smoke, 10 at Full.
func (s Scale) Reps() int {
	if s == Full {
		return 10
	}
	return 3
}

// timeSides is the harness's one timing routine. It runs every side once
// per rep, in the order given, and repeats that reps times, so slow drift in
// machine load falls on every side alike instead of masquerading as a
// difference between them. It returns each side's wall times in run order.
func timeSides(reps int, sides ...func()) [][]time.Duration {
	times := make([][]time.Duration, len(sides))
	for rep := 0; rep < reps; rep++ {
		for i, side := range sides {
			start := time.Now()
			side()
			times[i] = append(times[i], time.Since(start))
		}
	}
	return times
}

// quartiles returns the first quartile, the median and the third quartile of
// xs, interpolating linearly between the closest ranks.
func quartiles(xs []float64) (q1, median, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// spread formats xs as "median [q1–q3]", each with the given verb.
func spread(verb string, xs []float64) string {
	q1, median, q3 := quartiles(xs)
	return fmt.Sprintf(verb+" ["+verb+"–"+verb+"]", median, q1, q3)
}

// apart reports whether the quartile ranges of a and b do not overlap: only
// then does a cell comparing the two say more than the host's noise.
func apart(a, b []float64) bool {
	aq1, _, aq3 := quartiles(a)
	bq1, _, bq3 := quartiles(b)
	return aq3 < bq1 || bq3 < aq1
}

// kevS is the throughput of each rep of a side that processed n events, in
// thousands of events a second.
func kevS(n int, times []time.Duration) []float64 {
	out := make([]float64, len(times))
	for i, d := range times {
		out[i] = float64(n) / d.Seconds() / 1000
	}
	return out
}

// ratio is a/b rep by rep. The sides ran in alternation, so rep i of one and
// rep i of the other saw the same machine.
func ratio(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// overhead is each rep's throughput loss against base's, in percent.
func overhead(tput, base []float64) []float64 {
	out := ratio(tput, base)
	for i, r := range out {
		out[i] = (1 - r) * 100
	}
	return out
}
