package fiba

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"oostream/internal/event"
)

// elemsOf collects what a walk yields.
func elemsOf(walk func(func(Key, Partial, any) bool)) []string {
	var out []string
	walk(func(k Key, p Partial, aux any) bool {
		out = append(out, fmt.Sprint(k, p, aux))
		return true
	})
	return out
}

// TestRunMatchesTree drives a Run and the Tree, its reference, with one
// random sequence of every operation the operator issues, and more
// hostile ones: queries that go backward, inserts and deletes before the flip
// point, purges past it, many equal timestamps, and runs emptied and
// refilled. Values come from a small range in both numeric kinds, so MIN and
// MAX tie constantly between an Int and the equal Float and must resolve to
// the leftmost element: against the naive left fold Partials are compared
// field for field, kind included. Aux values (one insert in three has none)
// must stay with their elements. (The tree agrees on the number, not always
// on the kind: its node caches merge a late element on the right.)
func TestRunMatchesTree(t *testing.T) {
	for _, margin := range []event.Time{0, 25, 400} {
		var reached RunStats
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed*7 + int64(margin)))
			// Small trials stay inside one chunk; large ones span several and
			// cross chunk boundaries on every kind of shift.
			steps, window := 400, event.Time(40)
			if seed%3 == 0 {
				steps, window = 4000, event.Time(600)
			}
			run, tree, ref := NewRun(margin), New(), &naive{}
			var frontier, purged, end event.Time
			var liveKeys []Key
			seq := uint64(0)
			check := func(step int, what string, got, want any) {
				t.Helper()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("margin %d seed %d step %d: %s: run %v, tree %v", margin, seed, step, what, got, want)
				}
			}
			query := func(step int, lo, hi Key) {
				t.Helper()
				got, want := run.Query(lo, hi), tree.Query(lo, hi)
				if !samePartial(got, want) || got != ref.query(lo, hi) {
					t.Fatalf("margin %d seed %d step %d: query (%v,%v]: run %#v, tree %#v, left fold %#v",
						margin, seed, step, lo, hi, got, want, ref.query(lo, hi))
				}
			}
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(20); {
				case op < 9: // insert: at the frontier, a little late, or anywhere
					frontier += event.Time(rng.Intn(3))
					ts := frontier
					switch rng.Intn(8) {
					case 0, 1:
						ts -= event.Time(rng.Intn(30))
					case 2:
						ts -= event.Time(rng.Int63n(int64(window) * 2))
					}
					seq++
					k := Key{TS: ts, Seq: seq}
					p := Of(event.Int(int64(rng.Intn(6))))
					if rng.Intn(3) == 0 {
						p = Of(event.Float(float64(rng.Intn(12)) / 2))
					}
					// One insert in three cites nothing, so chunks are made
					// without a side array and gain one later, through every
					// splice, delete and purge.
					var aux any = seq
					if seq%3 == 0 {
						aux = nil
					}
					wantAppend := len(ref.keys) == 0 || ref.keys[len(ref.keys)-1].Less(k)
					if got := run.Insert(k, p, aux); got != wantAppend {
						t.Fatalf("margin %d seed %d step %d: insert %v reported append=%v", margin, seed, step, k, got)
					}
					tree.Insert(k, p, aux)
					ref.insert(k, p)
					liveKeys = append(liveKeys, k)
				case op < 11 && len(liveKeys) > 0: // delete: any key ever inserted
					k := liveKeys[rng.Intn(len(liveKeys))]
					gotAux, got := run.Delete(k)
					wantAux, want := tree.Delete(k)
					check(step, "delete", fmt.Sprint(gotAux, got), fmt.Sprint(wantAux, want))
					ref.delete(k)
				case op < 13: // purge: a step, a window, or everything
					cut := purged + event.Time(rng.Intn(10))
					switch rng.Intn(12) {
					case 0:
						cut = end
					case 1:
						cut = frontier + 1
					}
					purged = max(purged, cut)
					k := Key{TS: cut, Seq: MaxSeq}
					var gotAux, wantAux []any
					got := run.PurgeThrough(k, func(a any) { gotAux = append(gotAux, a) })
					want := tree.PurgeThrough(k, func(a any) { wantAux = append(wantAux, a) })
					check(step, "purge count", got, want)
					check(step, "purge aux order", gotAux, wantAux)
					ref.purgeThrough(k)
				case op < 18: // the operator's query: the next window on the grid
					end += event.Time(rng.Intn(4))
					query(step, Key{TS: end - window, Seq: MaxSeq}, Key{TS: end, Seq: MaxSeq})
				case op < 19: // a revision: an earlier window, or any range at all
					hi := end - event.Time(rng.Intn(int(window)))
					lo := hi - window
					if rng.Intn(3) == 0 {
						lo = purged + event.Time(rng.Intn(int(window)))
						hi = lo + event.Time(rng.Intn(int(window))) - 3
					}
					query(step, Key{TS: lo, Seq: MaxSeq}, Key{TS: hi, Seq: uint64(rng.Intn(2)) * MaxSeq})
				default:
					lo := Key{TS: end - event.Time(rng.Intn(int(window))), Seq: MaxSeq}
					hi := Key{TS: lo.TS + event.Time(rng.Intn(20)), Seq: MaxSeq}
					check(step, "ascend",
						elemsOf(func(f func(Key, Partial, any) bool) { run.Ascend(lo, hi, f) }),
						elemsOf(func(f func(Key, Partial, any) bool) { tree.Ascend(lo, hi, f) }))
					gotK, got := run.After(lo)
					var wantK Key
					want := false
					tree.Ascend(lo, Key{TS: math.MaxInt64, Seq: MaxSeq}, func(k Key, _ Partial, _ any) bool {
						wantK, want = k, true
						return false
					})
					check(step, "after", fmt.Sprint(gotK, got), fmt.Sprint(wantK, want))
				}
				check(step, "size", run.Size(), tree.Size())
				gotK, got := run.First()
				wantK, want := tree.First()
				check(step, "first", fmt.Sprint(gotK, got), fmt.Sprint(wantK, want))
				if step%97 == 0 {
					check(step, "all", elemsOf(run.All), elemsOf(tree.All))
				}
			}
			check(steps, "all", elemsOf(run.All), elemsOf(tree.All))
			reached.Flips += run.Stats().Flips
			reached.Fallbacks += run.Stats().Fallbacks
		}
		if reached.Flips < 100 || reached.Fallbacks < 100 {
			t.Fatalf("margin %d: the sequences took %d flips and %d fallbacks; they are meant to reach both often", margin, reached.Flips, reached.Fallbacks)
		}
	}
}

// slidingShape is the shape TestWindowFoldIsConstant drives: an element
// every `gap` of event time, a fifth of them delivered up to k late, a
// window of `live` elements sliding by half an element.
const (
	shapeGap  = event.Time(20)
	shapeLive = 6000
	shapeK    = event.Time(2000)
)

// shapeArrival returns n element timestamps in arrival order.
func shapeArrival(n int) []event.Time {
	rng := rand.New(rand.NewSource(21))
	type arr struct{ ts, at event.Time }
	as := make([]arr, n)
	for i := range as {
		ts := event.Time(i) * shapeGap
		as[i] = arr{ts, ts}
		if rng.Intn(5) == 0 {
			as[i].at += rng.Int63n(int64(shapeK))
		}
	}
	// Insertion sort by arrival time keeps equal arrivals in timestamp order.
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j].at < as[j-1].at; j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
	out := make([]event.Time, n)
	for i := range as {
		out[i] = as[i].ts
	}
	return out
}

// TestWindowFoldIsConstant holds the run to the claim in its name on the
// shape of the repository's sliding-window workload: about two merges a
// query and one a purged element, however many elements a window holds, and
// no query answered by a scan. Sealed: every window is read once, after the
// clock has passed its end by K, then its dead prefix is purged. Speculative:
// every window is read as the clock passes its end, each late element
// re-reads the windows already read that contain it, and the purge trails
// the clock by K. Every answer is checked against the tree.
func TestWindowFoldIsConstant(t *testing.T) {
	const (
		window = shapeLive * shapeGap
		slide  = shapeGap / 2
		n      = 4 * shapeLive
	)
	arrival := shapeArrival(n)
	for _, speculative := range []bool{false, true} {
		name, margin := "sealed", event.Time(0)
		if speculative {
			name, margin = "speculative", shapeK+slide
		}
		t.Run(name, func(t *testing.T) {
			run, tree := NewRun(margin), New()
			query := func(end event.Time) {
				lo, hi := Key{TS: end - window, Seq: MaxSeq}, Key{TS: end, Seq: MaxSeq}
				if got, want := run.Query(lo, hi), tree.Query(lo, hi); got != want {
					t.Fatalf("window ending %d: run %+v, tree %+v", end, got, want)
				}
			}
			purge := func(end event.Time) int {
				cut := Key{TS: end + slide - window, Seq: MaxSeq}
				tree.PurgeThrough(cut, nil)
				return run.PurgeThrough(cut, nil)
			}
			var clock, read event.Time
			purged, peak := 0, 0
			for i, ts := range arrival {
				k := Key{TS: ts, Seq: uint64(i)}
				p := Of(event.Int(int64(i * 7919 % 1000)))
				run.Insert(k, p, nil)
				tree.Insert(k, p, nil)
				peak = max(peak, run.Size())
				if speculative {
					for end := ts + (slide-ts%slide)%slide; end <= read; end += slide {
						query(end)
					}
				}
				clock = max(clock, ts)
				if speculative {
					for ; read+slide <= clock; read += slide {
						query(read + slide)
					}
					if sealed := clock - shapeK - slide; sealed > 0 {
						purged += purge(sealed - sealed%slide)
					}
					continue
				}
				for ; read+slide < clock-shapeK; read += slide {
					query(read + slide)
					purged += purge(read + slide)
				}
			}
			st := run.Stats()
			t.Logf("%d elements, peak %d live: %d queries, %.2f merges each; %d purged, %.2f flip merges each over %d flips; %d of %d inserts appended",
				n, peak, st.Queries, float64(st.QueryMerges)/float64(st.Queries),
				purged, float64(st.FlipMerges)/float64(purged), st.Flips, st.Appends, st.Inserts)
			if peak < shapeLive {
				t.Fatalf("peak %d live elements, the shape wants %d", peak, shapeLive)
			}
			if st.Fallbacks != 0 {
				t.Errorf("%d fallbacks under disorder bounded by K, want 0", st.Fallbacks)
			}
			if st.QueryMerges > 2*st.Queries {
				t.Errorf("%d merges over %d queries, want at most 2 a query", st.QueryMerges, st.Queries)
			}
			if st.FlipMerges > 3*uint64(purged) {
				t.Errorf("%d flip merges over %d purged elements, want at most 3 an element", st.FlipMerges, purged)
			}
		})
	}
}

// TestRunBeyondMargin: what the folds do not cover is still answered
// exactly, and counted. A margin shorter than nothing (WITHIN below the
// lateness bound: the flip point clamps to the window's left bound) costs a
// refold per query, not a fallback; an element older than the margin, or a
// window read again behind the flip point, is a fallback.
func TestRunBeyondMargin(t *testing.T) {
	fill := func(run *Run, tree *Tree, n int) {
		for i := 0; i < n; i++ {
			k, p := Key{TS: event.Time(i), Seq: uint64(i)}, Of(event.Int(int64(i%17)))
			run.Insert(k, p, nil)
			tree.Insert(k, p, nil)
		}
	}
	query := func(t *testing.T, run *Run, tree *Tree, lo, hi event.Time) {
		t.Helper()
		l, h := Key{TS: lo, Seq: MaxSeq}, Key{TS: hi, Seq: MaxSeq}
		if got, want := run.Query(l, h), tree.Query(l, h); got != want {
			t.Fatalf("(%d,%d]: run %+v, tree %+v", lo, hi, got, want)
		}
	}
	t.Run("window shorter than margin", func(t *testing.T) {
		run, tree := NewRun(50), New()
		fill(run, tree, 300)
		for end := event.Time(20); end < 300; end += 5 {
			query(t, run, tree, end-10, end)
		}
		st := run.Stats()
		if st.Fallbacks != 0 || st.Flips < 50 {
			t.Fatalf("%d flips, %d fallbacks: want a flip for nearly every one of %d queries and no fallback", st.Flips, st.Fallbacks, st.Queries)
		}
	})
	t.Run("element older than margin", func(t *testing.T) {
		run, tree := NewRun(10), New()
		fill(run, tree, 300)
		query(t, run, tree, 100, 200)
		k, p := Key{TS: 150, Seq: 1000}, Of(event.Int(99))
		run.Insert(k, p, nil)
		tree.Insert(k, p, nil)
		if st := run.Stats(); st.Fallbacks != 1 {
			t.Fatalf("insert 50 behind a right bound with margin 10: %d fallbacks, want 1", st.Fallbacks)
		}
		query(t, run, tree, 100, 200)
		query(t, run, tree, 105, 205)
		if st := run.Stats(); st.Fallbacks != 1 || st.Flips != 2 {
			t.Fatalf("after the refold: %d flips, %d fallbacks, want 2 and 1", st.Flips, st.Fallbacks)
		}
	})
	t.Run("right bound before flip point", func(t *testing.T) {
		run, tree := NewRun(10), New()
		fill(run, tree, 300)
		query(t, run, tree, 100, 200)
		query(t, run, tree, 50, 150)
		if st := run.Stats(); st.Fallbacks != 1 || st.Flips != 1 {
			t.Fatalf("%d flips, %d fallbacks, want 1 and 1", st.Flips, st.Fallbacks)
		}
	})
}

// TestWindowStateHoldsNoPointer: the partial, the run element (hence a
// chunk) and the fold entry hold no pointer, so the collector never scans
// a chunk or a fold, and a splice, refold or purge takes no write barrier.
// Citations live in a chunk's side array, outside the element. The sizes are
// pinned too: a partial is 48 bytes, an element 64 (96 and 128 when MIN and
// MAX were values).
func TestWindowStateHoldsNoPointer(t *testing.T) {
	fold := reflect.TypeOf(Run{}.front).Elem()
	for _, typ := range []reflect.Type{reflect.TypeFor[Partial](), reflect.TypeFor[elem](), reflect.TypeFor[chunk](), fold} {
		if path := pointerIn(typ, typ.String()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
	if got := reflect.TypeFor[Partial]().Size(); got != 48 {
		t.Errorf("a Partial is %d bytes, want 48", got)
	}
	if got := reflect.TypeFor[elem]().Size(); got != 64 {
		t.Errorf("a run element is %d bytes, want 64", got)
	}
}

// pointerIn returns the path to the first field of t that holds a pointer,
// or "" when none does.
func pointerIn(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Array:
		return pointerIn(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := range t.NumField() {
			if p := pointerIn(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return path
	}
	return ""
}
