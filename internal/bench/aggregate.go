package bench

import (
	"fmt"
	"sort"
	"time"

	"oostream"
	"oostream/internal/gen"
)

// E21FibaAggregation prices the windowed-aggregation operator: the same
// AGGREGATE query runs through the FiBA-tree engine and through a
// brute-force comparator that keeps the window's match elements in a
// sorted slice and rescans them at every window seal. Both sides pay the
// identical pattern-matching cost underneath, so the gap isolates window
// maintenance: O(log n) merged partials per window versus O(elements per
// window) rescans. MAX is the aggregation under test because it has no
// subtract-on-evict shortcut — recomputation is the honest alternative.
// The sweep shrinks SLIDE under a large fixed WITHIN: every element then
// participates in window/slide overlapping windows, so the rescan refolds
// the same ~thousand elements more and more often while the tree answers
// each extra window from O(log n) cached partials. The table locates the
// crossover pitch where the tree starts paying for itself; at tumbling
// pitches the flat slice wins on constants.
func E21FibaAggregation(s Scale) *Table {
	const window = oostream.Time(120_000)
	sorted := rfidSorted(s, 17)
	events := disorder(sorted, 0.2, defaultK, 18)

	t := &Table{
		ID:      "E21",
		Title:   "Windowed aggregation: FiBA tree vs. brute-force rescan",
		Anchor:  "extension: out-of-order sliding-window aggregation over pattern-match streams",
		Columns: []string{"slide", "windows", "elems/win", "fiba kev/s", "rescan kev/s", "speedup", "agree"},
		Notes: []string{
			"MAX(e.id) over SEQ(SHELF, EXIT) matches, WITHIN 120s; disorder 20% bounded by K=2000",
			"both sides run the full pattern engine; the delta is window maintenance only",
			"rescan keeps a sorted element slice and refolds every sealed window from scratch",
			"speedup = rescan wall time / fiba wall time (>1 means the tree wins)",
			"the rescan emits bare (end,value) tuples with no Match records, metrics, or revision support; BenchmarkE21Fiba compares the data structures alone",
		},
	}
	for _, slide := range []oostream.Time{2_000, 500, 100, 20} {
		aggQ := oostream.MustCompile(fmt.Sprintf(`
			AGGREGATE MAX(e.id) OVER SEQ(SHELF s, EXIT e)
			WHERE s.id = e.id
			WITHIN %d SLIDE %d`, window, slide), gen.RFIDSchema())
		fibaRes := runOne(aggQ, oostream.Config{K: defaultK}, events)
		scanElapsed, scanWins := runRescan(events, window, slide)

		fibaWins := make(map[string]int)
		var windows, contributors int64
		for _, m := range fibaRes.Matches {
			a := oostream.AsResult(m)
			agg, ok := a.Aggregate()
			if !ok {
				continue
			}
			fibaWins[winKey(agg.WindowEnd, agg.Value.String(), agg.Count)]++
			windows++
			contributors += agg.Count
		}
		agree := len(fibaWins) == len(scanWins)
		for k, n := range scanWins {
			if fibaWins[k] != n {
				agree = false
			}
		}
		elemsPerWin := 0.0
		if windows > 0 {
			elemsPerWin = float64(contributors) / float64(windows)
		}
		scanThroughput := float64(len(events)) / scanElapsed.Seconds()
		t.AddRow(fmt.Sprintf("%d", slide), fmtInt(int(windows)), fmtF1(elemsPerWin),
			fmtKevS(fibaRes.Throughput()), fmtKevS(scanThroughput),
			fmtF1(scanElapsed.Seconds()/fibaRes.Elapsed.Seconds()),
			fmt.Sprintf("%v", agree))
	}
	return t
}

func winKey(end oostream.Time, val string, count int64) string {
	return fmt.Sprintf("%d|%s|%d", end, val, count)
}

// runRescan is the brute-force comparator: the plain pattern engine feeds
// match elements (completion timestamp, MAX argument) into a slice kept
// sorted by timestamp; every time the stream clock seals a window end the
// window's elements are rescanned to refold the aggregate. Returns the
// best wall time of three repetitions and the emitted window multiset.
func runRescan(events []oostream.Event, window, slide oostream.Time) (time.Duration, map[string]int) {
	// Same WITHIN as the aggregate query so the pattern side of both
	// pipelines does identical work.
	q := oostream.MustCompile(fmt.Sprintf(
		"PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN %d", window),
		gen.RFIDSchema())
	const reps = 3
	var (
		best time.Duration = -1
		wins map[string]int
	)
	for rep := 0; rep < reps; rep++ {
		en := oostream.MustNewEngine(q, oostream.Config{K: defaultK})
		type elem struct {
			ts  oostream.Time
			val int64
		}
		var (
			elems   []elem
			clock   oostream.Time
			nextEnd oostream.Time = slide
		)
		wins = make(map[string]int)
		seal := func(end oostream.Time) {
			lo := sort.Search(len(elems), func(i int) bool { return elems[i].ts > end-window })
			hi := sort.Search(len(elems), func(i int) bool { return elems[i].ts > end })
			if lo == hi {
				return
			}
			max := elems[lo].val
			for _, e := range elems[lo+1 : hi] {
				if e.val > max {
					max = e.val
				}
			}
			wins[winKey(end, fmt.Sprintf("%d", max), int64(hi-lo))]++
			// Evict elements no future window can cover.
			expired := sort.Search(len(elems), func(i int) bool { return elems[i].ts > end+slide-window })
			if expired > 0 {
				elems = elems[expired:]
			}
		}
		absorb := func(ms []oostream.Match) {
			for _, m := range ms {
				ts := m.Events[len(m.Events)-1].TS
				id, _ := m.Events[len(m.Events)-1].Attr("id")
				val, _ := id.AsInt()
				i := sort.Search(len(elems), func(j int) bool { return elems[j].ts > ts })
				elems = append(elems, elem{})
				copy(elems[i+1:], elems[i:])
				elems[i] = elem{ts: ts, val: val}
			}
		}
		start := time.Now()
		for _, ev := range events {
			absorb(en.Process(ev))
			if ev.TS > clock {
				clock = ev.TS
				// Seal as the aggregate operator does: lateness defaultK
				// behind the stream clock, window ends on the slide grid.
				for nextEnd < clock-defaultK {
					seal(nextEnd)
					nextEnd += slide
				}
			}
		}
		absorb(en.Flush())
		for len(elems) > 0 {
			seal(nextEnd)
			nextEnd += slide
		}
		elapsed := time.Since(start)
		if best < 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, wins
}
