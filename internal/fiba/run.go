package fiba

import (
	"math"

	"oostream/internal/event"
)

// chunkLen is the number of elements per storage chunk: 8 KiB of 64-byte
// elements, large enough that a window is a few dozen chunks and small enough
// that a late splice within K of the tail moves one or two of them.
const (
	chunkShift = 7
	chunkLen   = 1 << chunkShift
)

// An element is its key and partial, and holds no pointer: a chunk is
// never scanned by the collector, and a splice or purge moves it without a
// write barrier. Its aux value, a citation, lives in its chunk's side array.
type elem struct {
	key  Key
	part Partial
}

type chunk [chunkLen]elem

// cites is a chunk's side array of aux values, slot for slot.
type cites [chunkLen]any

// RunStats counts what a Run did. Merges are counted where they happen, so
// a test can hold the structure to its claim: QueryMerges is what Query
// spent outside a flip (extending the back fold, the one combining merge,
// and any linear fallback), FlipMerges what refolding the front cost.
type RunStats struct {
	Inserts uint64
	// Appends are inserts past the current last key: no search, no shift.
	Appends uint64
	Queries uint64
	// QueryMerges is amortized at most two per query while right bounds
	// advance by about an element per query.
	QueryMerges uint64
	// Flips are refolds of the front; FlipMerges is one per element that was
	// live at the flip, so amortized about one per element purged.
	Flips      uint64
	FlipMerges uint64
	// Fallbacks are operations the folds did not cover: a query whose right
	// bound lies before the flip point (or in the trimmed part of the back
	// fold), answered by a linear scan, and an insert or delete before the
	// flip point, which discards the folds. Zero while right bounds, inserts
	// and deletes stay within the margin of the furthest right bound.
	Fallbacks uint64
}

// Plus returns s and o counted together.
func (s RunStats) Plus(o RunStats) RunStats {
	return RunStats{
		Inserts: s.Inserts + o.Inserts, Appends: s.Appends + o.Appends,
		Queries: s.Queries + o.Queries, QueryMerges: s.QueryMerges + o.QueryMerges,
		Flips: s.Flips + o.Flips, FlipMerges: s.FlipMerges + o.FlipMerges,
		Fallbacks: s.Fallbacks + o.Fallbacks,
	}
}

// Run is a sorted run of elements with a two-stacks fold over it: the window
// structure the aggregation operator runs. It answers the same range queries
// as Tree in amortized O(1) merges instead of O(log n), on the premise the
// paper's K-slack bound grants: by the time a window is read, the elements
// left of its right bound — less a fixed margin — no longer change.
//
// Elements are densely packed in fixed-size chunks: appended when in order,
// spliced in (shifting the tail) when late, dropped from the head a whole
// chunk at a time on purge. Over them sit two folds that meet at the flip
// point: front[i] is the merge of elements i up to the flip point, back[j]
// the merge from the flip point through j. A window that straddles the flip
// point is front[lo] merged with back[hi]: two searches and one merge. The
// back fold is extended only as far as a query's right bound, so an insert or
// delete beyond it costs the folds nothing, and one inside it merely
// truncates it. When a query's left bound passes the flip point the front is
// refolded up to a new flip point, the query's right bound less the margin:
// once per window length.
//
// Every answer is exact. What the folds do not cover falls back to a linear
// scan or a refold, counted in RunStats.Fallbacks. Not safe for concurrent use.
type Run struct {
	// chunks holds the elements in key order; logical index i lives in slot
	// off+i, so every chunk but the first and last is full. aux[c] is chunk
	// c's side array, made on the first non-nil aux value stored in it: a
	// run whose elements cite nothing allocates none.
	chunks []*chunk
	aux    []*cites
	off    int
	size   int
	// spare is one emptied chunk kept for the next append, so a run whose
	// purges keep pace with its appends allocates no chunk.
	spare *chunk

	// margin is how far (in timestamp) behind the furthest right bound a
	// later right bound, insert or delete may still fall and be covered.
	margin event.Time

	// Fold positions are absolute: base counts the elements purged so far,
	// so logical index i is position base+i and a purge moves no position.
	base   int
	folded bool
	// flip is the flip point. front ends there: its entry for position a,
	// front[len(front)-(flip-a)], covers [a, flip). back[a-backBase] covers
	// [flip, a].
	flip     int
	front    []Partial
	back     []Partial
	backBase int
	// reach is the furthest right bound seen less the margin: back entries
	// no right bound at or after it would read are trimmed.
	reach Key

	// loPos and hiPos are where the last query's bounds fell; the next
	// search starts there.
	loPos, hiPos int

	stats RunStats
}

// NewRun returns an empty run. margin is the timestamp distance behind the
// furthest right bound queried so far within which later right bounds,
// inserts and deletes are expected: zero when windows are read once, in
// order, after their elements are final.
func NewRun(margin event.Time) *Run {
	if margin < 0 {
		margin = 0
	}
	return &Run{margin: margin}
}

// Size returns the number of live elements.
func (r *Run) Size() int { return r.size }

// Stats returns the operation counters.
func (r *Run) Stats() RunStats { return r.stats }

// First returns the minimum live key.
func (r *Run) First() (Key, bool) {
	if r.size == 0 {
		return Key{}, false
	}
	return r.at(0).key, true
}

// After returns the smallest live key greater than k.
func (r *Run) After(k Key) (Key, bool) {
	i := r.upper(k, r.loPos-r.base)
	r.loPos = r.base + i
	if i == r.size {
		return Key{}, false
	}
	return r.at(i).key, true
}

func (r *Run) at(i int) *elem {
	p := r.off + i
	return &r.chunks[p>>chunkShift][p&(chunkLen-1)]
}

// auxAt returns the aux value in slot p (a slot, not a logical index).
func (r *Run) auxAt(p int) any {
	if c := r.aux[p>>chunkShift]; c != nil {
		return c[p&(chunkLen-1)]
	}
	return nil
}

// setAux stores v in slot p, making its chunk's side array for the first
// non-nil value.
func (r *Run) setAux(p int, v any) {
	c := r.aux[p>>chunkShift]
	if c == nil {
		if v == nil {
			return
		}
		c = new(cites)
		r.aux[p>>chunkShift] = c
	}
	c[p&(chunkLen-1)] = v
}

// upper returns the first logical index whose key is greater than k (size
// when none is), galloping outward from the index from: the cost is
// logarithmic in the distance between from and the answer.
func (r *Run) upper(k Key, from int) int {
	n := r.size
	from = min(max(from, 0), n)
	lo, hi := 0, n
	if from == n || k.Less(r.at(from).key) {
		hi = from
		for step := 1; ; step <<= 1 {
			j := from - step
			if j < 0 {
				break
			}
			if !k.Less(r.at(j).key) {
				lo = j + 1
				break
			}
			hi = j
		}
	} else {
		lo = from + 1
		for step := 1; ; step <<= 1 {
			j := from + step
			if j >= n {
				break
			}
			if k.Less(r.at(j).key) {
				hi = j
				break
			}
			lo = j + 1
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k.Less(r.at(mid).key) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Insert adds one element and reports whether it was an append (its key
// past every live key). Keys are expected to be unique, as the tree requires;
// a duplicate is kept after its equal.
func (r *Run) Insert(k Key, p Partial, aux any) (appended bool) {
	r.stats.Inserts++
	if (r.off+r.size)/chunkLen == len(r.chunks) {
		c := r.spare
		if r.spare = nil; c == nil {
			c = new(chunk)
		}
		r.chunks = append(r.chunks, c)
		r.aux = append(r.aux, nil)
	}
	i := r.size
	if i > 0 && k.Less(r.at(i-1).key) {
		i = r.upper(k, i-1)
		r.disturb(r.base + i)
		r.openSlot(i)
	} else {
		r.stats.Appends++
		appended = true
	}
	r.size++
	*r.at(i) = elem{key: k, part: p}
	r.setAux(r.off+i, aux)
	return appended
}

// Delete removes the element with key k, returning its aux value.
func (r *Run) Delete(k Key) (any, bool) {
	i := r.upper(k, r.size) - 1
	if i < 0 || r.at(i).key != k {
		return nil, false
	}
	aux := r.auxAt(r.off + i)
	r.disturb(r.base + i)
	r.closeSlot(i)
	r.size--
	r.releaseTail()
	return aux, true
}

// disturb accounts in the folds for an element arriving at, or leaving,
// position a. Beyond the back fold's extent nothing covers it yet; inside,
// the entries from a on are stale and the fold is cut there, to be extended
// again by the next query that reaches that far. At or before the flip point
// (or in the trimmed part of the back fold, whose predecessor entry is gone)
// the folds are discarded and the next query refolds.
func (r *Run) disturb(a int) {
	if !r.folded || a >= r.backBase+len(r.back) {
		return
	}
	switch {
	case a > r.backBase:
		r.back = r.back[:a-r.backBase]
	case a == r.flip && r.backBase == r.flip:
		r.back = r.back[:0]
	default:
		r.folded = false
		r.stats.Fallbacks++
	}
}

// openSlot shifts the elements from logical index i on one slot toward the
// tail, aux values with them. The slot after the last element exists (Insert
// saw to it); the slot at i keeps a copy of what moved on.
func (r *Run) openSlot(i int) {
	first, last := r.off+i, r.off+r.size
	for ci := last / chunkLen; ; ci-- {
		c, a := r.chunks[ci], r.aux[ci]
		lo, hi := 0, chunkLen-1
		if ci == first/chunkLen {
			lo = first % chunkLen
		}
		if ci == last/chunkLen {
			hi = last % chunkLen
		}
		copy(c[lo+1:hi+1], c[lo:hi])
		if a != nil {
			copy(a[lo+1:hi+1], a[lo:hi])
		}
		if ci == first/chunkLen {
			return
		}
		c[0] = r.chunks[ci-1][chunkLen-1]
		r.setAux(ci*chunkLen, r.auxAt(ci*chunkLen-1))
	}
}

// closeSlot shifts the elements after logical index i one slot toward the
// head, over it, aux values with them, and clears the aux the last one left.
func (r *Run) closeSlot(i int) {
	first, last := r.off+i, r.off+r.size-1
	for ci := first / chunkLen; ; ci++ {
		c, a := r.chunks[ci], r.aux[ci]
		lo, hi := 0, chunkLen-1
		if ci == first/chunkLen {
			lo = first % chunkLen
		}
		if ci == last/chunkLen {
			hi = last % chunkLen
		}
		copy(c[lo:hi], c[lo+1:hi+1])
		if a != nil {
			copy(a[lo:hi], a[lo+1:hi+1])
		}
		if ci == last/chunkLen {
			if a != nil {
				a[hi] = nil
			}
			return
		}
		c[chunkLen-1] = r.chunks[ci+1][0]
		r.setAux(ci*chunkLen+chunkLen-1, r.auxAt((ci+1)*chunkLen))
	}
}

// releaseTail gives back chunks past the last element, and everything when
// the run is empty.
func (r *Run) releaseTail() {
	if r.size == 0 {
		r.off = 0
	}
	need := (r.off + r.size + chunkLen - 1) / chunkLen
	for len(r.chunks) > need {
		n := len(r.chunks) - 1
		r.spare, r.chunks[n], r.aux[n] = r.chunks[n], nil, nil
		r.chunks, r.aux = r.chunks[:n], r.aux[:n]
	}
}

// PurgeThrough removes every element with key <= k, calling onRemove (when
// non-nil) with each removed element's aux value, oldest first, and returns
// the number removed. Emptied head chunks are dropped whole; the folds are
// positioned absolutely and are not touched.
func (r *Run) PurgeThrough(k Key, onRemove func(aux any)) int {
	if r.size == 0 || k.Less(r.at(0).key) {
		return 0
	}
	n := r.upper(k, 0)
	for p := r.off; p < r.off+n; p++ {
		if onRemove != nil {
			onRemove(r.auxAt(p))
		}
		r.setAux(p, nil)
	}
	r.off += n
	r.size -= n
	r.base += n
	if drop := r.off / chunkLen; drop > 0 {
		r.spare = r.chunks[0]
		kept := copy(r.chunks, r.chunks[drop:])
		copy(r.aux, r.aux[drop:])
		clear(r.chunks[kept:])
		clear(r.aux[kept:])
		r.chunks, r.aux = r.chunks[:kept], r.aux[:kept]
		r.off %= chunkLen
	}
	r.releaseTail()
	return n
}

// Query aggregates the half-open key range (lo, hi].
func (r *Run) Query(lo, hi Key) Partial {
	r.stats.Queries++
	if r.size == 0 || !lo.Less(hi) {
		return Partial{}
	}
	return r.query(r.upper(lo, r.loPos-r.base), hi)
}

// QueryThrough aggregates every key up to hi, the least key of the time
// range included, which no exclusive lower bound reaches: a window whose
// start lies below the range.
func (r *Run) QueryThrough(hi Key) Partial {
	r.stats.Queries++
	if r.size == 0 {
		return Partial{}
	}
	return r.query(0, hi)
}

// query aggregates from logical index i through hi.
func (r *Run) query(i int, hi Key) Partial {
	j := r.upper(hi, r.hiPos-r.base)
	r.loPos, r.hiPos = r.base+i, r.base+j
	if i >= j {
		return Partial{}
	}
	bound := Key{TS: math.MinInt64, Seq: hi.Seq}
	if hi.TS >= math.MinInt64+r.margin {
		bound.TS = hi.TS - r.margin
	}
	if !r.folded || r.loPos > r.flip {
		r.refold(i, j, bound)
	} else if r.reach.Less(bound) {
		r.reach = bound
	}
	if r.hiPos < r.flip || (r.hiPos > r.flip && r.hiPos <= r.backBase) {
		r.stats.Fallbacks++
		r.stats.QueryMerges += uint64(j - i)
		var acc Partial
		for x := i; x < j; x++ {
			acc = acc.Merge(r.at(x).part)
		}
		return acc
	}
	var left Partial
	if r.loPos < r.flip {
		left = r.front[len(r.front)-(r.flip-r.loPos)]
	}
	if r.hiPos == r.flip {
		return left
	}
	r.extendBack(r.hiPos)
	r.stats.QueryMerges++
	return left.Merge(r.back[r.hiPos-1-r.backBase])
}

// refold moves the flip point to the first element past bound, kept inside
// the query's range [i, j), folds the front from the head up to it and
// empties the back fold.
func (r *Run) refold(i, j int, bound Key) {
	f := min(max(r.upper(bound, j), i), j)
	if cap(r.front) < f {
		r.front = make([]Partial, f)
	}
	r.front = r.front[:f]
	var acc Partial
	for x := f - 1; x >= 0; x-- {
		acc = r.at(x).part.Merge(acc)
		r.front[x] = acc
	}
	r.stats.Flips++
	r.stats.FlipMerges += uint64(f)
	r.folded = true
	r.flip, r.backBase = r.base+f, r.base+f
	clear(r.back)
	r.back = r.back[:0]
	r.reach = bound
}

// extendBack grows the back fold through position to-1.
func (r *Run) extendBack(to int) {
	end := r.backBase + len(r.back)
	if end >= to {
		return
	}
	var acc Partial
	if len(r.back) > 0 {
		acc = r.back[len(r.back)-1]
	}
	r.stats.QueryMerges += uint64(to - end)
	for a := end; a < to; a++ {
		acc = acc.Merge(r.at(a - r.base).part)
		if len(r.back) == cap(r.back) && len(r.back) >= 16 {
			r.trimBack()
		}
		r.back = append(r.back, acc)
	}
}

// trimBack drops the back entries before the one a right bound at reach
// would read, when they are at least half of the fold; otherwise the append
// that follows grows it. The last entry always stays: extending needs it.
func (r *Run) trimBack() {
	live := r.base + r.upper(r.reach, r.hiPos-r.base) - 1
	drop := min(live-r.backBase, len(r.back)-1)
	if 2*drop < len(r.back) {
		return
	}
	n := copy(r.back, r.back[drop:])
	clear(r.back[n:])
	r.back = r.back[:n]
	r.backBase += drop
}

// All walks every element in ascending key order, calling f for each; f
// returning false stops the walk.
func (r *Run) All(f func(k Key, p Partial, aux any) bool) {
	for i := 0; i < r.size; i++ {
		if e := r.at(i); !f(e.key, e.part, r.auxAt(r.off+i)) {
			return
		}
	}
}

// Ascend walks elements with key in (lo, hi] in ascending order, calling f
// for each; f returning false stops the walk.
func (r *Run) Ascend(lo, hi Key, f func(k Key, p Partial, aux any) bool) {
	for i := r.upper(lo, r.loPos-r.base); i < r.size; i++ {
		e := r.at(i)
		if hi.Less(e.key) || !f(e.key, e.part, r.auxAt(r.off+i)) {
			return
		}
	}
}
