package bench

import (
	"fmt"
	"runtime"
	"sort"

	"oostream"
	"oostream/internal/fiba"
	"oostream/internal/gen"
)

// E21FibaAggregation prices window maintenance three ways under one
// AGGREGATE query: the sorted run with a two-stacks fold the operator runs
// (fiba.Run), the finger B+-tree it is tested against (fiba.Tree), and a
// brute-force rescan of a sorted slice at every window seal. The operator
// column is the query through the facade; the three
// structure columns run the plain pattern engine and feed its matches to the
// bare structure, sealing as the operator does, so all four pay the identical
// pattern-matching cost and the three bare ones differ in window maintenance
// alone: one merge per window (run), O(log n) merged partials (tree), or
// O(elements per window) (rescan). MAX is the aggregation under test because
// it has no subtract-on-evict shortcut — recomputation is the honest
// alternative. The sweep shrinks SLIDE under a large fixed WITHIN: every
// element then participates in window/slide overlapping windows.
func E21FibaAggregation(s Scale) *Table {
	const window = oostream.Time(120_000)
	sorted := rfidSorted(s, 17)
	events := disorder(sorted, 0.2, defaultK, 18)

	t := &Table{
		ID:      "E21",
		Title:   "Windowed aggregation: two-stacks run vs. FiBA tree vs. brute-force rescan",
		Anchor:  "extension: out-of-order sliding-window aggregation over pattern-match streams",
		Columns: []string{"slide", "windows", "elems/win", "operator kev/s", "run kev/s", "tree kev/s", "rescan kev/s", "run/tree", "run/rescan", "agree"},
		Notes: []string{
			"MAX(e.id) over SEQ(SHELF, EXIT) matches, WITHIN 120s; disorder 20% bounded by K=2000",
			"operator = the AGGREGATE query through the facade (fiba.Run inside, Match records, metrics, HAVING, checkpointable)",
			"run / tree / rescan = the plain pattern engine feeding the bare structure, emitting bare (end,value,count) tuples",
			"run/tree and run/rescan are wall-time ratios of the bare columns, rep by rep (>1 means the run wins)",
			"agree = all four window multisets equal; BenchmarkSlidingMax in internal/fiba compares the structures without the pattern engine",
		},
	}
	for _, slide := range []oostream.Time{2_000, 500, 100, 20} {
		aggQ := oostream.MustCompile(fmt.Sprintf(`
			AGGREGATE MAX(e.id) OVER SEQ(SHELF s, EXIT e)
			WHERE s.id = e.id
			WITHIN %d SLIDE %d`, window, slide), gen.RFIDSchema())
		// Same WITHIN as the aggregate query so the pattern side of every
		// pipeline does identical work.
		patQ := oostream.MustCompile(fmt.Sprintf(
			"PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN %d", window),
			gen.RFIDSchema())
		var (
			opRes Result
			wins  [3]map[string]int
		)
		sides := []func(){func() { opRes = runOne(aggQ, oostream.Config{K: defaultK}, events) }}
		for i, mk := range []func() windowStore{newRunStore, newTreeStore, newScanStore} {
			sides = append(sides, func() { wins[i] = runBare(patQ, events, window, slide, mk) })
		}
		times := timeSides(s.Reps(), sides...)

		opWins := make(map[string]int)
		var windows, contributors int64
		for _, m := range opRes.Matches {
			agg := m.Agg
			if agg == nil {
				continue
			}
			opWins[winKey(agg.WindowEnd, agg.Value.String(), agg.Count)]++
			windows++
			contributors += agg.Count
		}
		agree := true
		for _, w := range wins {
			agree = agree && len(w) == len(opWins)
			for k, n := range w {
				agree = agree && opWins[k] == n
			}
		}
		elemsPerWin := 0.0
		if windows > 0 {
			elemsPerWin = float64(contributors) / float64(windows)
		}
		var tput [4][]float64
		for i := range tput {
			tput[i] = kevS(len(events), times[i])
		}
		t.AddRow(fmt.Sprintf("%d", slide), fmtInt(int(windows)), fmtF1(elemsPerWin),
			spread("%.0f", tput[0]), spread("%.0f", tput[1]), spread("%.0f", tput[2]), spread("%.0f", tput[3]),
			spread("%.1f", ratio(tput[1], tput[2])),
			spread("%.1f", ratio(tput[1], tput[3])),
			fmt.Sprintf("%v", agree))
	}
	const live = 6000
	t.Notes = append(t.Notes, fmt.Sprintf("live heap holding %d elements mid-stream (window slid three lengths): run %.0f KB, tree %.0f KB",
		live, liveHeapKB(newRunStore, live), liveHeapKB(newTreeStore, live)))
	return t
}

func winKey(end oostream.Time, val string, count int64) string {
	return fmt.Sprintf("%d|%s|%d", end, val, count)
}

// windowStore is what E21 drives: the window state of one ungrouped MAX
// query, in sealed mode.
type windowStore interface {
	// insert adds one element; seq makes equal timestamps distinct.
	insert(ts oostream.Time, seq uint64, val int64)
	// seal reads the window (end−window, end], then evicts what no window
	// after end can cover (ts <= end+slide−window).
	seal(end, window, slide oostream.Time) (max, count int64, ok bool)
	size() int
}

// fibaStore adapts fiba.Run and fiba.Tree: they share every method but
// Insert, which only the run answers (whether it appended).
type fibaStore struct {
	insertFn func(fiba.Key, fiba.Partial)
	w        interface {
		Query(lo, hi fiba.Key) fiba.Partial
		PurgeThrough(k fiba.Key, onRemove func(aux any)) int
		Size() int
	}
}

func newRunStore() windowStore {
	r := fiba.NewRun(0)
	return &fibaStore{func(k fiba.Key, p fiba.Partial) { r.Insert(k, p, nil) }, r}
}

func newTreeStore() windowStore {
	t := fiba.New()
	return &fibaStore{func(k fiba.Key, p fiba.Partial) { t.Insert(k, p, nil) }, t}
}

func (s *fibaStore) insert(ts oostream.Time, seq uint64, val int64) {
	s.insertFn(fiba.Key{TS: ts, Seq: seq}, fiba.Of(oostream.Int(val)))
}

func (s *fibaStore) seal(end, window, slide oostream.Time) (int64, int64, bool) {
	p := s.w.Query(fiba.Key{TS: end - window, Seq: fiba.MaxSeq}, fiba.Key{TS: end, Seq: fiba.MaxSeq})
	s.w.PurgeThrough(fiba.Key{TS: end + slide - window, Seq: fiba.MaxSeq}, nil)
	max, _ := p.Max.AsInt()
	return max, p.Count, p.Count > 0
}

func (s *fibaStore) size() int { return s.w.Size() }

// scanStore is the brute-force comparator: elements in a slice sorted by
// timestamp, every window refolded from scratch.
type scanStore struct {
	elems []scanElem
}

type scanElem struct {
	ts  oostream.Time
	val int64
}

func newScanStore() windowStore { return &scanStore{} }

func (s *scanStore) insert(ts oostream.Time, _ uint64, val int64) {
	i := sort.Search(len(s.elems), func(j int) bool { return s.elems[j].ts > ts })
	s.elems = append(s.elems, scanElem{})
	copy(s.elems[i+1:], s.elems[i:])
	s.elems[i] = scanElem{ts: ts, val: val}
}

func (s *scanStore) seal(end, window, slide oostream.Time) (int64, int64, bool) {
	lo := sort.Search(len(s.elems), func(i int) bool { return s.elems[i].ts > end-window })
	hi := sort.Search(len(s.elems), func(i int) bool { return s.elems[i].ts > end })
	var max int64
	if lo < hi {
		max = s.elems[lo].val
		for _, e := range s.elems[lo+1 : hi] {
			if e.val > max {
				max = e.val
			}
		}
	}
	expired := sort.Search(len(s.elems), func(i int) bool { return s.elems[i].ts > end+slide-window })
	s.elems = s.elems[expired:]
	return max, int64(hi - lo), lo < hi
}

func (s *scanStore) size() int { return len(s.elems) }

// runBare feeds the plain pattern engine's matches (completion timestamp,
// MAX argument) to a bare window store and seals every grid end the stream
// clock passes by the lateness bound, as the operator does. Returns the
// emitted window multiset.
func runBare(q *oostream.Query, events []oostream.Event, window, slide oostream.Time, mk func() windowStore) map[string]int {
	en := oostream.MustNewEngine(q, oostream.Config{K: defaultK})
	var (
		store   = mk()
		seq     uint64
		clock   oostream.Time
		nextEnd oostream.Time = slide
		wins                  = make(map[string]int)
	)
	seal := func(end oostream.Time) {
		if max, n, ok := store.seal(end, window, slide); ok {
			wins[winKey(end, fmt.Sprintf("%d", max), n)]++
		}
	}
	absorb := func(ms []oostream.Match) {
		for _, m := range ms {
			last := m.Events[len(m.Events)-1]
			id, _ := last.Attr("id")
			val, _ := id.AsInt()
			seq++
			store.insert(last.TS, seq, val)
		}
	}
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
	for store.size() > 0 {
		seal(nextEnd)
		nextEnd += slide
	}
	return wins
}

// liveHeapKB is the live heap a window store holds with `live` elements in
// it mid-stream: an in-order stream of one element and one sealed window per
// unit of time, slid through three window lengths so that chunks, nodes and
// folds are in their steady state, measured as the heap the collector finds
// reachable before and after.
func liveHeapKB(mk func() windowStore, live int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	store := mk()
	for i := 0; i < 4*live; i++ {
		ts := oostream.Time(i)
		store.insert(ts, uint64(i), int64(i*7919%1000))
		store.seal(ts, oostream.Time(live), 1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(store)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1024
}
