// Package fiba holds the window state of out-of-order sliding-window
// aggregation: the Partial monoid and two structures that answer range
// aggregates over (timestamp, sequence)-keyed elements with the same method
// set.
//
// Run (run.go) is what the aggregation operator runs: a sorted run of
// elements in fixed-size chunks under a two-stacks fold, one merge per window
// while disorder stays within the bound windows are read by.
//
// Tree is the reference Run is tested and timed against: a finger balanced
// aggregation tree (FiBA) after
// Tangwongsan, Hirzel & Schneider's "Optimal and General Out-of-Order
// Sliding-Window Aggregation". It pays O(log n) merges per window whatever
// the disorder, which is why it stays the better structure for elements that
// arrive later than any bound (BenchmarkSlidingMax, beyond-bound rows); the
// repository benchmark's per-layer shadow still times it.
//
// The tree is a small-fanout B+-tree keyed by (timestamp, sequence) with a
// partial aggregate cached at every node and finger pointers to the leftmost
// and rightmost leaves. In-order appends and front purges touch only a
// finger and its ancestors (amortized O(1)); a late insert at time distance d
// from the frontier climbs from the right finger just far enough to cover d,
// giving amortized O(log d) — matching the disorder profile of a K-slack
// stream, where most late events land within K of the frontier.
//
// Aggregates are kept as a Partial monoid covering COUNT/SUM/AVG/MIN/MAX
// simultaneously; a tree query merges O(log n) cached partials instead of
// rescanning elements. Deletions are relaxed (no rebalancing): removing
// elements can only shrink nodes, and the sliding-window workload purges
// whole prefixes, so underfull nodes are short-lived. Correctness under the
// relaxation is held by the model test against Run and the naive left fold.
package fiba

import (
	"cmp"
	"math"

	"oostream/internal/event"
)

// Key orders tree elements: by timestamp, then by an arbitrary unique
// sequence number so that simultaneous elements remain distinct.
type Key struct {
	TS  event.Time `json:"ts"`
	Seq uint64     `json:"seq"`
}

// Less reports strict (TS, Seq) lexicographic order.
func (k Key) Less(o Key) bool {
	return k.TS < o.TS || (k.TS == o.TS && k.Seq < o.Seq)
}

// MaxSeq is the largest sequence component; Key{TS: t, Seq: MaxSeq} is the
// supremum of all keys at time t, which makes half-open window queries
// (lo, hi] expressible over inclusive key bounds.
const MaxSeq = ^uint64(0)

// Partial is the aggregation monoid: one struct carries enough to answer
// COUNT, SUM, AVG, MIN, and MAX at once. The zero value is the identity
// (Count == 0). Sums are kept in both integer and float form: SumI is exact
// while every contribution is an int (Floaty == false); SumF is the float
// fallback that also feeds AVG.
//
// MIN and MAX are only ever numbers, so each is kept as its kind and its
// exact bits (an int64's, or a float64's IEEE-754 bits), as predicate.Bound
// keeps its best: a Partial holds no pointer, and neither do the runs and
// folds built of it, which the collector then never scans. Min and Max
// return them as values; the invalid Value while no number contributed.
type Partial struct {
	Count int64
	SumI  int64
	SumF  float64
	// min and max are the bits of MIN and MAX, of kinds minKind and
	// maxKind (event.KindInvalid while none is set).
	min, max         uint64
	minKind, maxKind uint8
	Floaty           bool
}

// CountOnly builds a counting partial carrying no summed value.
func CountOnly() Partial { return Partial{Count: 1} }

// Of builds the singleton partial for one numeric value. Non-numeric values
// yield the identity (callers are expected to have kind-checked upstream).
func Of(v event.Value) Partial {
	k, bits, ok := numberOf(v)
	if !ok {
		return Partial{}
	}
	p := Partial{Count: 1, min: bits, max: bits, minKind: k, maxKind: k}
	if k == kindInt {
		p.SumI = int64(bits)
		p.SumF = float64(p.SumI)
	} else {
		p.SumF = math.Float64frombits(bits)
		p.Floaty = true
	}
	return p
}

// WithMinMax returns p with MIN and MAX set to min and max, each a number
// or the invalid Value; ok is false when either is another kind.
func (p Partial) WithMinMax(min, max event.Value) (Partial, bool) {
	var ok bool
	if p.minKind, p.min, ok = numberOf(min); !ok && min.Valid() {
		return p, false
	}
	if p.maxKind, p.max, ok = numberOf(max); !ok && max.Valid() {
		return p, false
	}
	return p, true
}

// Min returns MIN, the invalid Value when no number contributed.
func (p Partial) Min() event.Value { return valueOf(p.minKind, p.min) }

// Max returns MAX, the invalid Value when no number contributed.
func (p Partial) Max() event.Value { return valueOf(p.maxKind, p.max) }

// Merge combines two partials; the zero Partial is the identity.
func (p Partial) Merge(o Partial) Partial {
	if p.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return p
	}
	out := Partial{
		Count:  p.Count + o.Count,
		SumI:   p.SumI + o.SumI,
		SumF:   p.SumF + o.SumF,
		Floaty: p.Floaty || o.Floaty,
	}
	out.minKind, out.min = least(p.minKind, p.min, o.minKind, o.min)
	out.maxKind, out.max = greatest(p.maxKind, p.max, o.maxKind, o.max)
	return out
}

// The kinds a MIN or MAX takes, as stored.
const (
	kindInt   = uint8(event.KindInt)
	kindFloat = uint8(event.KindFloat)
)

// numberOf returns a number's kind and bits; ok is false for any other
// value.
func numberOf(v event.Value) (kind uint8, bits uint64, ok bool) {
	if i, isInt := v.AsInt(); isInt {
		return kindInt, uint64(i), true
	}
	if v.Kind() == event.KindFloat {
		f, _ := v.AsFloat()
		return kindFloat, math.Float64bits(f), true
	}
	return 0, 0, false
}

func valueOf(kind uint8, bits uint64) event.Value {
	switch kind {
	case kindInt:
		return event.Int(int64(bits))
	case kindFloat:
		return event.Float(math.Float64frombits(bits))
	}
	return event.Value{}
}

// least and greatest pick MIN and MAX of two numbers, a missing one (kind
// 0) losing to any. They order NaN above every number, so that MIN and MAX
// do not depend on the order partials merge in: compare calls a NaN equal to
// everything, so a tie keeps the non-NaN side for MIN and the NaN for MAX.
func least(ak uint8, a uint64, bk uint8, b uint64) (uint8, uint64) {
	if ak == 0 {
		return bk, b
	}
	if bk == 0 {
		return ak, a
	}
	if c := compare(ak, a, bk, b); c > 0 || c == 0 && isNaN(ak, a) {
		return bk, b
	}
	return ak, a
}

func greatest(ak uint8, a uint64, bk uint8, b uint64) (uint8, uint64) {
	if ak == 0 {
		return bk, b
	}
	if bk == 0 {
		return ak, a
	}
	if c := compare(ak, a, bk, b); c < 0 || c == 0 && isNaN(bk, b) {
		return bk, b
	}
	return ak, a
}

// compare orders two numbers as event.Value.Compare does: two ints as ints,
// anything else as floats, where a NaN is equal to everything.
func compare(ak uint8, a uint64, bk uint8, b uint64) int {
	if ak == kindInt && bk == kindInt {
		return cmp.Compare(int64(a), int64(b))
	}
	af, bf := asFloat(ak, a), asFloat(bk, b)
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

func asFloat(kind uint8, bits uint64) float64 {
	if kind == kindInt {
		return float64(int64(bits))
	}
	return math.Float64frombits(bits)
}

func isNaN(kind uint8, bits uint64) bool {
	return kind == kindFloat && math.IsNaN(math.Float64frombits(bits))
}

// Stats counts structural operations for observability: FingerHits are
// inserts that landed directly in a finger leaf (the in-order and
// near-frontier fast path); Climbs are parent steps taken by out-of-order
// inserts before descending.
type Stats struct {
	Inserts    uint64
	FingerHits uint64
	Climbs     uint64
}

// maxKeys bounds leaf occupancy and internal fanout. Small enough that
// per-node scans stay in cache, large enough to keep the tree shallow.
const maxKeys = 32

type node struct {
	parent *node
	leaf   bool

	// Leaf payload: keys sorted ascending, parts/aux aligned.
	keys  []Key
	parts []Partial
	aux   []any
	next  *node
	prev  *node

	// Internal payload: children ordered by their low keys.
	children []*node

	// Cached subtree summaries, maintained on every structural change.
	agg  Partial
	low  Key
	high Key
}

// Tree is the finger aggregation tree. Not safe for concurrent use.
type Tree struct {
	root      *node
	leftLeaf  *node
	rightLeaf *node
	size      int
	height    int
	stats     Stats
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Size returns the number of live elements.
func (t *Tree) Size() int { return t.size }

// Height returns the number of node levels (0 when empty).
func (t *Tree) Height() int { return t.height }

// Stats returns the operation counters.
func (t *Tree) Stats() Stats { return t.stats }

// Total returns the aggregate over every live element in O(1).
func (t *Tree) Total() Partial {
	if t.root == nil {
		return Partial{}
	}
	return t.root.agg
}

// First returns the minimum live key, in O(1) via the left finger.
func (t *Tree) First() (Key, bool) {
	if t.leftLeaf == nil {
		return Key{}, false
	}
	return t.leftLeaf.keys[0], true
}

// Last returns the maximum live key, in O(1) via the right finger.
func (t *Tree) Last() (Key, bool) {
	if t.rightLeaf == nil {
		return Key{}, false
	}
	return t.rightLeaf.keys[len(t.rightLeaf.keys)-1], true
}

// Insert adds one element. Keys must be unique (callers stamp a fresh Seq);
// inserting a duplicate key panics.
func (t *Tree) Insert(k Key, p Partial, aux any) {
	t.stats.Inserts++
	if t.root == nil {
		l := &node{leaf: true, keys: []Key{k}, parts: []Partial{p}, aux: []any{aux}}
		t.root, t.leftLeaf, t.rightLeaf = l, l, l
		t.height = 1
		t.size = 1
		t.stats.FingerHits++
		refresh(l)
		return
	}
	leaf := t.targetLeaf(k)
	i := 0
	for i < len(leaf.keys) && leaf.keys[i].Less(k) {
		i++
	}
	if i < len(leaf.keys) && leaf.keys[i] == k {
		panic("fiba: duplicate key insert")
	}
	leaf.keys = append(leaf.keys, Key{})
	copy(leaf.keys[i+1:], leaf.keys[i:])
	leaf.keys[i] = k
	leaf.parts = append(leaf.parts, Partial{})
	copy(leaf.parts[i+1:], leaf.parts[i:])
	leaf.parts[i] = p
	leaf.aux = append(leaf.aux, nil)
	copy(leaf.aux[i+1:], leaf.aux[i:])
	leaf.aux[i] = aux
	t.size++
	t.splitUp(leaf, k, p)
}

// targetLeaf locates the leaf that should hold k, using the fingers: the
// right finger absorbs frontier and near-frontier keys, the left finger
// absorbs keys before everything seen, and anything else climbs from the
// right finger until its ancestor's subtree covers k, then descends.
func (t *Tree) targetLeaf(k Key) *node {
	if !k.Less(t.rightLeaf.low) {
		t.stats.FingerHits++
		return t.rightLeaf
	}
	if k.Less(t.leftLeaf.low) || t.leftLeaf == t.rightLeaf {
		t.stats.FingerHits++
		return t.leftLeaf
	}
	n := t.rightLeaf
	for n.parent != nil && k.Less(n.low) {
		n = n.parent
		t.stats.Climbs++
	}
	for !n.leaf {
		// Route to the last child whose low is <= k; k >= n.low here, so
		// such a child exists except at the root (where child 0 catches).
		c := n.children[0]
		for _, cand := range n.children[1:] {
			if k.Less(cand.low) {
				break
			}
			c = cand
		}
		n = c
	}
	return n
}

// splitUp splits overfull nodes from leaf to root and maintains cached
// summaries along the way. (k, p) is the element the insert just added:
// a node that needs no split gained exactly that one element, so its
// cache updates incrementally — one monoid merge and a bounds widen —
// instead of a full re-merge of its payload. Only nodes that split (and
// their new siblings) pay a recompute.
func (t *Tree) splitUp(n *node, k Key, p Partial) {
	for n != nil {
		over := false
		if n.leaf {
			over = len(n.keys) > maxKeys
		} else {
			over = len(n.children) > maxKeys
		}
		if !over {
			n.agg = n.agg.Merge(p)
			if k.Less(n.low) {
				n.low = k
			}
			if n.high.Less(k) {
				n.high = k
			}
			n = n.parent
			continue
		}
		r := t.splitNode(n)
		refresh(n)
		refresh(r)
		if n.parent == nil {
			root := &node{children: []*node{n, r}}
			n.parent, r.parent = root, root
			t.root = root
			t.height++
			refresh(root)
			n = nil
			continue
		}
		p := n.parent
		idx := childIndex(p, n)
		p.children = append(p.children, nil)
		copy(p.children[idx+2:], p.children[idx+1:])
		p.children[idx+1] = r
		r.parent = p
		n = p
	}
}

// splitNode moves the upper half of n into a new right sibling and returns it.
func (t *Tree) splitNode(n *node) *node {
	r := &node{leaf: n.leaf, parent: n.parent}
	if n.leaf {
		mid := len(n.keys) / 2
		r.keys = append(r.keys, n.keys[mid:]...)
		r.parts = append(r.parts, n.parts[mid:]...)
		r.aux = append(r.aux, n.aux[mid:]...)
		n.keys = n.keys[:mid]
		n.parts = n.parts[:mid]
		n.aux = n.aux[:mid]
		r.next = n.next
		r.prev = n
		if n.next != nil {
			n.next.prev = r
		} else {
			t.rightLeaf = r
		}
		n.next = r
	} else {
		mid := len(n.children) / 2
		r.children = append(r.children, n.children[mid:]...)
		n.children = n.children[:mid]
		for _, c := range r.children {
			c.parent = r
		}
	}
	return r
}

func childIndex(p *node, c *node) int {
	for i, x := range p.children {
		if x == c {
			return i
		}
	}
	panic("fiba: orphaned child")
}

// refresh recomputes one node's cached low/high/agg from its payload.
func refresh(n *node) {
	if n.leaf {
		var p Partial
		for i := range n.parts {
			p = p.Merge(n.parts[i])
		}
		n.agg = p
		if len(n.keys) > 0 {
			n.low = n.keys[0]
			n.high = n.keys[len(n.keys)-1]
		}
		return
	}
	var p Partial
	for _, c := range n.children {
		p = p.Merge(c.agg)
	}
	n.agg = p
	if len(n.children) > 0 {
		n.low = n.children[0].low
		n.high = n.children[len(n.children)-1].high
	}
}

func refreshUp(n *node) {
	for n != nil {
		refresh(n)
		n = n.parent
	}
}

// findLeaf locates the leaf whose range covers k, or nil.
func (t *Tree) findLeaf(k Key) *node {
	if t.root == nil {
		return nil
	}
	n := t.root
	for !n.leaf {
		c := n.children[0]
		for _, cand := range n.children[1:] {
			if k.Less(cand.low) {
				break
			}
			c = cand
		}
		n = c
	}
	return n
}

// Delete removes the element with key k, returning its aux value. Deletion
// is relaxed — no rebalancing; empty nodes unlink and cascade upward — which
// keeps late retractions cheap and is safe because the sliding window purges
// whole prefixes before imbalance accumulates.
func (t *Tree) Delete(k Key) (any, bool) {
	leaf := t.findLeaf(k)
	if leaf == nil {
		return nil, false
	}
	i := 0
	for i < len(leaf.keys) && leaf.keys[i].Less(k) {
		i++
	}
	if i >= len(leaf.keys) || leaf.keys[i] != k {
		return nil, false
	}
	aux := leaf.aux[i]
	leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
	leaf.parts = append(leaf.parts[:i], leaf.parts[i+1:]...)
	leaf.aux = append(leaf.aux[:i], leaf.aux[i+1:]...)
	t.size--
	if len(leaf.keys) == 0 {
		t.removeNode(leaf)
	} else {
		refreshUp(leaf)
	}
	return aux, true
}

// removeNode unlinks an empty node, cascading through empty ancestors, and
// refreshes summaries on the surviving path.
func (t *Tree) removeNode(n *node) {
	if n.leaf {
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			t.leftLeaf = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		} else {
			t.rightLeaf = n.prev
		}
	}
	p := n.parent
	if p == nil {
		t.root = nil
		t.leftLeaf, t.rightLeaf = nil, nil
		t.height = 0
		return
	}
	idx := childIndex(p, n)
	p.children = append(p.children[:idx], p.children[idx+1:]...)
	n.parent = nil
	if len(p.children) == 0 {
		t.removeNode(p)
		return
	}
	refreshUp(p)
	t.collapseRoot()
}

// collapseRoot shrinks trivial single-child root chains left by relaxed
// deletion so Height reflects the live structure.
func (t *Tree) collapseRoot() {
	for t.root != nil && !t.root.leaf && len(t.root.children) == 1 {
		c := t.root.children[0]
		c.parent = nil
		t.root = c
		t.height--
	}
}

// PurgeThrough removes every element with key <= k, calling onRemove (when
// non-nil) with each removed element's aux value, oldest first. Returns the
// number of elements removed. Amortized O(1) per removal: only the left
// finger and its ancestors are touched.
func (t *Tree) PurgeThrough(k Key, onRemove func(aux any)) int {
	removed := 0
	for t.leftLeaf != nil && !k.Less(t.leftLeaf.keys[0]) {
		leaf := t.leftLeaf
		i := 0
		for i < len(leaf.keys) && !k.Less(leaf.keys[i]) {
			if onRemove != nil {
				onRemove(leaf.aux[i])
			}
			i++
		}
		removed += i
		t.size -= i
		if i == len(leaf.keys) {
			leaf.keys = nil
			leaf.parts = nil
			leaf.aux = nil
			t.removeNode(leaf)
			continue
		}
		leaf.keys = append(leaf.keys[:0], leaf.keys[i:]...)
		leaf.parts = append(leaf.parts[:0], leaf.parts[i:]...)
		leaf.aux = append(leaf.aux[:0], leaf.aux[i:]...)
		refreshUp(leaf)
		break
	}
	return removed
}

// Query aggregates the half-open key range (lo, hi] by merging O(log n)
// cached partials.
func (t *Tree) Query(lo, hi Key) Partial {
	if t.root == nil || !lo.Less(hi) {
		return Partial{}
	}
	return querySeg(t.root, lo, hi)
}

func querySeg(n *node, lo, hi Key) Partial {
	if !lo.Less(n.high) || hi.Less(n.low) {
		return Partial{} // disjoint
	}
	if lo.Less(n.low) && !hi.Less(n.high) {
		return n.agg // contained
	}
	var p Partial
	if n.leaf {
		for i, k := range n.keys {
			if lo.Less(k) && !hi.Less(k) {
				p = p.Merge(n.parts[i])
			}
		}
		return p
	}
	for _, c := range n.children {
		p = p.Merge(querySeg(c, lo, hi))
	}
	return p
}

// All walks every element in ascending key order, calling f for each; f
// returning false stops the walk.
func (t *Tree) All(f func(k Key, p Partial, aux any) bool) {
	for leaf := t.leftLeaf; leaf != nil; leaf = leaf.next {
		for i, k := range leaf.keys {
			if !f(k, leaf.parts[i], leaf.aux[i]) {
				return
			}
		}
	}
}

// Ascend walks elements with key in (lo, hi] in ascending order, calling f
// for each; f returning false stops the walk.
func (t *Tree) Ascend(lo, hi Key, f func(k Key, p Partial, aux any) bool) {
	for leaf := t.leftLeaf; leaf != nil; leaf = leaf.next {
		if !lo.Less(leaf.high) {
			continue // entire leaf <= lo
		}
		for i, k := range leaf.keys {
			if !lo.Less(k) {
				continue
			}
			if hi.Less(k) {
				return
			}
			if !f(k, leaf.parts[i], leaf.aux[i]) {
				return
			}
		}
	}
}
