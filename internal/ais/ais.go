// Package ais implements Active Instance Stacks, the stack-based data
// structure at the heart of SASE-style sequence scan and construction and of
// this paper's out-of-order extension.
//
// One stack per positive pattern position holds the *active instances*:
// events of the position's type that passed the position's local predicates
// and are still inside the purge horizon. Positions that admit the same
// events (one type, no local predicate) share one stack. A stack holds its
// events by value, sorted by (timestamp, arrival sequence).
//
// An instance's RIP (rightmost viable predecessor) is the latest instance in
// the previous stack with a strictly smaller timestamp. For in-order arrival
// it is the top of the previous stack at insertion time. Here it is derived
// where construction needs it, by binary search: the RIP of an instance with
// timestamp ts is index FirstAtOrAfter(ts)−1 of the previous stack. No
// pointer is stored, so no pointer needs repair. The out-of-order extension
// of the paper supports:
//
//   - insert at the timestamp-correct position (binary search);
//   - the RIP fix-up count: the instances of the *next* stack whose RIP the
//     new instance becomes form a contiguous run, the run the paper's fix-up
//     repoints; LastFixups reports its length as the structural work the
//     insertion caused;
//   - purge of a timestamp-prefix of a stack once the safe clock passes it.
package ais

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"oostream/internal/event"
	"oostream/internal/predicate"
)

// Stack is a sorted run of events, ascending by (TS, Seq): one position's
// active instances, or one key group's buffered negatives.
type Stack struct {
	items []event.Event
}

// Len returns the number of live instances.
func (s *Stack) Len() int { return len(s.items) }

// At returns the i-th instance in timestamp order. The pointer is valid until
// the stack next changes.
func (s *Stack) At(i int) *event.Event { return &s.items[i] }

// FirstAtOrAfter returns the first index whose instance has TS >= ts, which
// is also the count of instances with TS < ts.
func (s *Stack) FirstAtOrAfter(ts event.Time) int {
	return sort.Search(len(s.items), func(i int) bool {
		return s.items[i].TS >= ts
	})
}

// FirstAfter returns the first index whose instance has TS > ts.
func (s *Stack) FirstAfter(ts event.Time) int {
	return sort.Search(len(s.items), func(i int) bool {
		return s.items[i].TS > ts
	})
}

// Insert places e at its (TS, Seq) position, after any equal, and returns
// that index.
func (s *Stack) Insert(e event.Event) int {
	idx := sort.Search(len(s.items), func(i int) bool {
		return e.Before(s.items[i])
	})
	s.items = append(s.items, event.Event{})
	copy(s.items[idx+1:], s.items[idx:])
	s.items[idx] = e
	return idx
}

// PurgeBefore removes every instance with TS < ts and returns how many were
// removed. The array keeps its capacity; the vacated tail is zeroed so the
// removed events' attributes can be collected.
func (s *Stack) PurgeBefore(ts event.Time) int {
	idx := s.FirstAtOrAfter(ts)
	if idx == 0 {
		return 0
	}
	n := copy(s.items, s.items[idx:])
	clear(s.items[n:])
	s.items = s.items[:n]
	return idx
}

// IsSorted verifies the (TS, Seq) order invariant (used by tests).
func (s *Stack) IsSorted() bool {
	for i := 1; i < len(s.items); i++ {
		if !s.items[i-1].Before(s.items[i]) {
			return false
		}
	}
	return true
}

// String renders the stack's timestamps compactly for debugging.
func (s *Stack) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := range s.items {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", s.items[i].TS)
	}
	b.WriteByte(']')
	return b.String()
}

// Stacks is the full AIS structure: one stack per class of positions that
// admit the same events (Classes). A position of its own is a class of one.
type Stacks struct {
	// stacks holds one stack per class, by value: a key group is a Stacks,
	// and RFID workloads open one for every third event.
	stacks []Stack
	// cols is the layout: which stack each position reads, and the operand
	// columns. It is nil unless positions share a stack or construction
	// reads operands from some position (KeyedStacks built by
	// NewKeyedClasses).
	cols *layout
	// lastFix is the RIP fix-up count of the most recent Insert, which
	// engines read via LastFixups right after it to feed repair metrics.
	lastFix int
}

// layout says which stack each position reads and holds, per class, one
// column per operand construction reads from its positions, aligned with
// the class's stack: sides[c][k][i] is ops[c][k] loaded from instance i.
// Each entry is loaded once, when its instance is inserted; inserts and
// purges move the columns with the instances, so a restore that inserts
// rebuilds them and no checkpoint holds them.
type layout struct {
	// class[pos] is the class of position pos; nil when each position is
	// its own.
	class []int
	// ops[c] holds the distinct operands of class c's positions, in
	// position order: operands that load the same value from every event
	// (predicate.Operand.Equal) share a column, whichever positions read
	// them. at[pos][k] is the column of position pos's k-th operand,
	// posOps[pos][k] (which CheckColumns loads again).
	ops    [][]predicate.Operand
	at     [][]int
	posOps [][]predicate.Operand
	// sides is the one part a group owns (fork); the rest every group of a
	// KeyedStacks shares.
	sides [][][]predicate.Side
}

// Classes numbers the stacks of n positions: same(p, q) says positions p
// and q admit the same events, so that one stack can hold both. Classes are
// numbered in order of their first position; it returns nil when no two
// positions share, the layout of New and NewKeyed.
func Classes(n int, same func(p, q int) bool) []int {
	class, classes := make([]int, n), 0
	for p := range class {
		q := 0
		for q < p && !same(q, p) {
			q++
		}
		if q < p {
			class[p] = class[q]
		} else {
			class[p], classes = classes, classes+1
		}
	}
	if classes == n {
		return nil
	}
	return class
}

// newLayout lays out n positions in classes (nil: one each) reading ops
// (per position; nil: none), or returns nil when the stacks need no layout.
func newLayout(class []int, ops [][]predicate.Operand, n int) *layout {
	if class == nil && ops == nil {
		return nil
	}
	l := &layout{class: class, ops: make([][]predicate.Operand, classCount(class, n)), at: make([][]int, n), posOps: ops}
	for pos := range l.at {
		if ops == nil {
			continue
		}
		c := l.classOf(pos)
		for _, op := range ops[pos] {
			k := slices.IndexFunc(l.ops[c], op.Equal)
			if k < 0 {
				k = len(l.ops[c])
				l.ops[c] = append(l.ops[c], op)
			}
			l.at[pos] = append(l.at[pos], k)
		}
	}
	return l
}

// classCount is the number of classes of n positions.
func classCount(class []int, n int) int {
	if class == nil {
		return n
	}
	return slices.Max(class) + 1
}

// fork returns a layout of l's shape with empty columns, for a new group
// (nil for a nil layout).
func (l *layout) fork() *layout {
	if l == nil {
		return nil
	}
	f := &layout{class: l.class, ops: l.ops, at: l.at, posOps: l.posOps, sides: make([][][]predicate.Side, len(l.ops))}
	for c, ops := range l.ops {
		f.sides[c] = make([][]predicate.Side, len(ops))
	}
	return f
}

// classOf returns the class of position pos (pos itself in a nil layout).
func (l *layout) classOf(pos int) int {
	if l == nil || l.class == nil {
		return pos
	}
	return l.class[pos]
}

// insert loads class c's operands from e, inserted at index idx.
func (l *layout) insert(c, idx int, e *event.Event) {
	for k, op := range l.ops[c] {
		col := append(l.sides[c][k], predicate.Side{})
		copy(col[idx+1:], col[idx:])
		col[idx] = op.Load(e)
		l.sides[c][k] = col
	}
}

// trim drops the first n entries of class c's columns, zeroing the vacated
// tail as Stack.PurgeBefore does.
func (l *layout) trim(c, n int) {
	for k, col := range l.sides[c] {
		m := copy(col, col[n:])
		clear(col[m:])
		l.sides[c][k] = col[:m]
	}
}

// class returns the class of position pos.
func (a *Stacks) class(pos int) int { return a.cols.classOf(pos) }

// Columns appends to dst the columns of the operands construction reads
// from position pos, in the order of its operands: entry i of column k is
// its k-th operand loaded from instance i of the position's stack. They are
// valid until the stacks next change, so a walk resolves them once, into
// its own scratch.
func (a *Stacks) Columns(pos int, dst [][]predicate.Side) [][]predicate.Side {
	if a.cols == nil {
		return dst
	}
	cols := a.cols.sides[a.class(pos)]
	for _, k := range a.cols.at[pos] {
		dst = append(dst, cols[k])
	}
	return dst
}

// New creates an AIS with n positions, each with a stack of its own.
func New(n int) *Stacks {
	return &Stacks{stacks: make([]Stack, n)}
}

// Len returns the number of positions.
func (a *Stacks) Len() int {
	if a.cols == nil {
		return len(a.stacks)
	}
	return len(a.cols.at)
}

// Stack returns the stack that holds position pos's instances, shared with
// every position of its class. A walk resolves it once per level.
func (a *Stacks) Stack(pos int) *Stack { return &a.stacks[a.class(pos)] }

// Size returns the total number of live instances across all stacks, each
// shared stack counted once.
func (a *Stacks) Size() int {
	total := 0
	for i := range a.stacks {
		total += len(a.stacks[i].items)
	}
	return total
}

// Insert places e into the stack of position pos (once for its whole
// class), keeping timestamp order, and returns its index there. It records
// pos's RIP fix-up count (Fixups).
//
// For in-order arrival (e later than everything seen) this degenerates to
// the classic SASE push: an append, and no next-stack instance to repoint.
func (a *Stacks) Insert(pos int, e event.Event) int {
	c := a.class(pos)
	s := &a.stacks[c]
	idx := s.Insert(e)
	if a.cols != nil {
		a.cols.insert(c, idx, &s.items[idx])
	}
	a.lastFix = a.Fixups(pos, idx)
	return idx
}

// Fixups returns the RIP fix-up count of the instance at index idx of
// position pos's stack: the next position's instances whose RIP it is are
// those with a timestamp above its own and at most the timestamp of its
// successor in its stack (any timestamp when it is last), a contiguous
// run. An instance inserted once for a class reports the count for each of
// the class's positions: where the next position shares the stack, the
// instance itself sits at or below both ends of the run, which it therefore
// does not lengthen.
func (a *Stacks) Fixups(pos, idx int) int {
	if pos+1 >= a.Len() {
		return 0
	}
	s, next := a.Stack(pos), a.Stack(pos+1)
	end := len(next.items)
	if idx+1 < len(s.items) {
		end = next.FirstAfter(s.items[idx+1].TS)
	}
	return end - next.FirstAfter(s.items[idx].TS)
}

// LastFixups returns how many next-stack instances the most recent Insert
// became the RIP of: the run the paper's fix-up repoints (0 for a plain
// in-order push).
func (a *Stacks) LastFixups() int { return a.lastFix }

// Reach sets reach[p] = [lo, hi) to the run of position p's stack that a
// sequence through an instance at position pos with timestamp ts, spanning
// at most window, can bind, and reports whether every run is non-empty.
// Going down, a run starts at ts − window and ends below the latest instance
// of the run one position up (at pos−1, it ends with the instance's RIP);
// going up, it starts above the earliest instance of the run one position
// down and ends at ts + window. reach[pos] is left alone, and so is every
// position beyond the first empty run.
func (a *Stacks) Reach(pos int, ts, window event.Time, reach [][2]int) bool {
	low, high := event.SubSat(ts, window), event.AddSat(ts, window)
	for p, bound := pos-1, ts; p >= 0; p-- {
		s := a.Stack(p)
		reach[p] = [2]int{s.FirstAtOrAfter(low), s.FirstAtOrAfter(bound)}
		if reach[p][0] >= reach[p][1] {
			return false
		}
		bound = s.items[reach[p][1]-1].TS
	}
	for p, bound := pos+1, ts; p < a.Len(); p++ {
		s := a.Stack(p)
		reach[p] = [2]int{s.FirstAfter(bound), s.FirstAfter(high)}
		if reach[p][0] >= reach[p][1] {
			return false
		}
		bound = s.items[reach[p][0]].TS
	}
	return true
}

// PurgeBefore removes, at every position, instances with TS < horizon(pos).
// The per-position horizon function lets engines keep the final stack on a
// different schedule than intermediate stacks (see the purge rules in the
// core engine); a shared stack is purged at the lowest horizon of its
// positions. It returns the total number purged.
func (a *Stacks) PurgeBefore(horizon func(pos int) event.Time) int {
	total := 0
	for c := range a.stacks {
		total += a.purge(c, a.cols.horizon(c, horizon))
	}
	return total
}

// horizon returns the lowest of h(pos) over the positions of class c,
// calling h once for each: a shared stack keeps what any of its positions
// may still bind.
func (l *layout) horizon(c int, h func(pos int) event.Time) event.Time {
	if l == nil || l.class == nil {
		return h(c)
	}
	low := event.Time(math.MaxInt64)
	for pos, pc := range l.class {
		if pc == c {
			low = min(low, h(pos))
		}
	}
	return low
}

// purge removes class c's instances with TS < ts, and their column
// entries, and returns how many it removed.
func (a *Stacks) purge(c int, ts event.Time) int {
	n := a.stacks[c].PurgeBefore(ts)
	if a.cols != nil && n > 0 {
		a.cols.trim(c, n)
	}
	return n
}

// checkLayout verifies a's columns against want, the layout its key group
// was forked from (nil when none): per class a column per distinct operand,
// one entry per instance, and each position's columns what loading its own
// operands from the instances gives now.
func (a *Stacks) checkLayout(want *layout) error {
	if want == nil || a.cols == nil {
		if want != nil || a.cols != nil {
			return fmt.Errorf("layout present %t, wanted %t", a.cols != nil, want != nil)
		}
		return nil
	}
	for c, s := range a.stacks {
		if len(a.cols.sides[c]) != len(want.ops[c]) {
			return fmt.Errorf("class %d: %d columns for %d operands", c, len(a.cols.sides[c]), len(want.ops[c]))
		}
		for k, col := range a.cols.sides[c] {
			if len(col) != len(s.items) {
				return fmt.Errorf("class %d column %d: %d entries for %d instances", c, k, len(col), len(s.items))
			}
		}
	}
	if want.posOps == nil {
		return nil
	}
	for pos, ops := range want.posOps {
		s := a.Stack(pos)
		for k, col := range a.Columns(pos, nil) {
			for i := range col {
				if !col[i].Same(ops[k].Load(&s.items[i])) {
					return fmt.Errorf("position %d operand %d entry %d (ts=%d) differs from its instance's load", pos, k, i, s.items[i].TS)
				}
			}
		}
	}
	return nil
}
