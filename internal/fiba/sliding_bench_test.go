package fiba_test

import (
	"fmt"
	"sort"
	"testing"

	"oostream"
	"oostream/internal/fiba"
)

// BenchmarkSlidingMax compares three ways to maintain a sliding MAX over an
// out-of-order element stream, data structures alone (no pattern engine):
// the sorted run with a two-stacks fold the aggregate operator runs
// (fiba.Run: one merge per window), the FiBA tree it is tested against
// (O(log n) cached partials per window), and the brute-force sorted slice
// that rescans every in-window element at every seal. MAX has no
// subtract-on-evict shortcut, so the rescan is the honest alternative. The
// run and the tree are flat in window density; the rescan degenerates with
// it. Each is run twice: sealing windows behind the clock by the stream's
// measured disorder bound (every element is final when its window is read,
// the premise the run's fold rests on), and by k, under a third of it, where
// one element in twelve arrives after a window it belongs to was read — each
// costs the run a refold of a window's length and the tree a climb. The
// stream is also wide in elements: nine inserts in ten land 500 to 1 000
// elements behind the last, which the run pays as a shift of that many and
// the tree as a climb. E21 in EXPERIMENTS.md runs the same comparison under
// the pattern engine and through the aggregate operator, on a stream whose
// late elements land about a hundred behind the last.
func BenchmarkSlidingMax(b *testing.B) {
	const (
		n     = 100_000
		k     = 1_000 // an element is swapped with one up to k later
		slide = oostream.Time(10)
	)
	// Deterministic element stream: ts marches 1/element, ~10% swapped with
	// an element up to k earlier, values from a fixed LCG. The later of a
	// pair runs the clock up to k ahead of everything that follows, and swaps
	// chain, so lateness against the clock is measured, not assumed.
	type elem struct {
		ts  oostream.Time
		seq uint64
		val int64
	}
	elems := make([]elem, n)
	rng := uint64(1)
	for i := range elems {
		rng = rng*6364136223846793005 + 1442695040888963407
		elems[i] = elem{ts: oostream.Time(i), seq: uint64(i), val: int64(rng >> 40)}
	}
	for i := range elems {
		rng = rng*6364136223846793005 + 1442695040888963407
		if rng%10 == 0 {
			d := int(rng>>32) % k
			if j := i - d; j >= 0 {
				elems[i], elems[j] = elems[j], elems[i]
			}
		}
	}
	var clock, bound oostream.Time
	for _, e := range elems {
		clock = max(clock, e.ts)
		bound = max(bound, clock-e.ts)
	}
	// store is one of the three structures under test.
	type store struct {
		insert func(e elem)
		// seal reads the MAX of (end−window, end] and evicts what no later
		// window covers.
		seal func(end, window oostream.Time) (int64, bool)
	}
	fibaStore := func(insert func(fiba.Key, fiba.Partial), query func(lo, hi fiba.Key) fiba.Partial, purge func(fiba.Key, func(any)) int) store {
		return store{
			insert: func(e elem) { insert(fiba.Key{TS: e.ts, Seq: e.seq}, fiba.Of(oostream.Int(e.val))) },
			seal: func(end, window oostream.Time) (int64, bool) {
				p := query(fiba.Key{TS: end - window, Seq: fiba.MaxSeq}, fiba.Key{TS: end, Seq: fiba.MaxSeq})
				purge(fiba.Key{TS: end + slide - window, Seq: fiba.MaxSeq}, nil)
				return p.Max.AsInt()
			},
		}
	}
	structures := []struct {
		name string
		make func() store
	}{
		{"run", func() store {
			r := fiba.NewRun(0)
			return fibaStore(func(k fiba.Key, p fiba.Partial) { r.Insert(k, p, nil) }, r.Query, r.PurgeThrough)
		}},
		{"fiba", func() store {
			t := fiba.New()
			return fibaStore(func(k fiba.Key, p fiba.Partial) { t.Insert(k, p, nil) }, t.Query, t.PurgeThrough)
		}},
		{"rescan", func() store {
			var buf []elem // sorted by ts
			after := func(ts oostream.Time) int {
				return sort.Search(len(buf), func(j int) bool { return buf[j].ts > ts })
			}
			return store{
				insert: func(e elem) {
					at := after(e.ts)
					buf = append(buf, elem{})
					copy(buf[at+1:], buf[at:])
					buf[at] = e
				},
				seal: func(end, window oostream.Time) (max int64, ok bool) {
					lo, hi := after(end-window), after(end)
					if ok = lo < hi; ok {
						max = buf[lo].val
						for _, x := range buf[lo+1 : hi] {
							if x.val > max {
								max = x.val
							}
						}
					}
					buf = buf[after(end+slide-window):]
					return max, ok
				},
			}
		}},
	}
	for _, window := range []oostream.Time{1_000, 16_000, 64_000} {
		for _, lag := range []struct {
			name string
			by   oostream.Time
		}{{"within-bound", bound}, {"beyond-bound", k}} {
			for _, st := range structures {
				b.Run(fmt.Sprintf("elems/win=%d/%s/%s", window, lag.name, st.name), func(b *testing.B) {
					b.ReportAllocs()
					var sink int64
					for i := 0; i < b.N; i++ {
						s := st.make()
						var clock, nextEnd oostream.Time
						nextEnd = slide
						for _, e := range elems {
							s.insert(e)
							if e.ts > clock {
								clock = e.ts
								for ; nextEnd < clock-lag.by; nextEnd += slide {
									if v, ok := s.seal(nextEnd, window); ok {
										sink ^= v
									}
								}
							}
						}
					}
					b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "elems/s")
					_ = sink
				})
			}
		}
	}
}
