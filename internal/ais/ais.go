// Package ais implements Active Instance Stacks, the stack-based data
// structure at the heart of SASE-style sequence scan and construction and of
// this paper's out-of-order extension.
//
// One stack per positive pattern position holds the *active instances*:
// events of the position's type that passed the position's local predicates
// and are still inside the purge horizon. A stack holds its events by value,
// sorted by (timestamp, arrival sequence).
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

// Stacks is the full AIS structure: one stack per positive position.
type Stacks struct {
	// stacks holds the positions by value: a key group is a Stacks, and RFID
	// workloads open one for every third event.
	stacks []Stack
	// cols is nil unless construction reads operands from some position
	// (KeyedStacks built by NewKeyedColumns).
	cols *columns
	// lastFix is the RIP fix-up count of the most recent Insert, which
	// engines read via LastFixups right after it to feed repair metrics.
	lastFix int
}

// columns holds, per position, one column per operand construction reads
// from it, aligned with the position's stack: sides[pos][k][i] is
// ops[pos][k] loaded from instance i. Each entry is loaded once, when its
// instance is inserted; inserts and purges move the columns with the
// instances, so a restore that inserts rebuilds them and no checkpoint holds
// them.
type columns struct {
	ops   [][]predicate.Operand
	sides [][][]predicate.Side
}

// insert loads position pos's operands from e, inserted at index idx.
func (c *columns) insert(pos, idx int, e *event.Event) {
	for k, op := range c.ops[pos] {
		col := append(c.sides[pos][k], predicate.Side{})
		copy(col[idx+1:], col[idx:])
		col[idx] = op.Load(e)
		c.sides[pos][k] = col
	}
}

// trim drops the first n entries of position pos's columns, zeroing the
// vacated tail as Stack.PurgeBefore does.
func (c *columns) trim(pos, n int) {
	for k, col := range c.sides[pos] {
		m := copy(col, col[n:])
		clear(col[m:])
		c.sides[pos][k] = col[:m]
	}
}

// Column returns the column of operand k at position pos: entry i is the
// operand loaded from the position's instance i. It is valid until the
// stacks next change.
func (a *Stacks) Column(pos, k int) []predicate.Side { return a.cols.sides[pos][k] }

// New creates an AIS with n positions.
func New(n int) *Stacks {
	return &Stacks{stacks: make([]Stack, n)}
}

// Len returns the number of positions.
func (a *Stacks) Len() int { return len(a.stacks) }

// Stack returns the stack at position i.
func (a *Stacks) Stack(i int) *Stack { return &a.stacks[i] }

// Size returns the total number of live instances across all stacks.
func (a *Stacks) Size() int {
	total := 0
	for i := range a.stacks {
		total += len(a.stacks[i].items)
	}
	return total
}

// Insert places e into the stack at position pos, keeping timestamp order,
// and returns its index there. It records the RIP fix-up count: the
// next-stack instances whose RIP e becomes are those with a timestamp above
// e's and at most the timestamp of e's successor in its own stack (any
// timestamp when e is last), a contiguous run.
//
// For in-order arrival (e later than everything seen) this degenerates to
// the classic SASE push: an append, and no next-stack instance to repoint.
func (a *Stacks) Insert(pos int, e event.Event) int {
	s := &a.stacks[pos]
	idx := s.Insert(e)
	if a.cols != nil {
		a.cols.insert(pos, idx, &s.items[idx])
	}
	a.lastFix = 0
	if pos+1 < len(a.stacks) {
		next := &a.stacks[pos+1]
		end := len(next.items)
		if idx+1 < len(s.items) {
			end = next.FirstAfter(s.items[idx+1].TS)
		}
		a.lastFix = end - next.FirstAfter(e.TS)
	}
	return idx
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
		s := &a.stacks[p]
		reach[p] = [2]int{s.FirstAtOrAfter(low), s.FirstAtOrAfter(bound)}
		if reach[p][0] >= reach[p][1] {
			return false
		}
		bound = s.items[reach[p][1]-1].TS
	}
	for p, bound := pos+1, ts; p < len(a.stacks); p++ {
		s := &a.stacks[p]
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
// core engine). It returns the total number purged.
func (a *Stacks) PurgeBefore(horizon func(pos int) event.Time) int {
	total := 0
	for i := range a.stacks {
		total += a.purge(i, horizon(i))
	}
	return total
}

// purge removes position pos's instances with TS < ts, and their column
// entries, and returns how many it removed.
func (a *Stacks) purge(pos int, ts event.Time) int {
	n := a.stacks[pos].PurgeBefore(ts)
	if a.cols != nil && n > 0 {
		a.cols.trim(pos, n)
	}
	return n
}

// checkColumns verifies a's columns against ops, per position the operands
// read from it (nil when none are): a column per operand, one entry per
// instance, each what loading its operand from the instance gives now.
func (a *Stacks) checkColumns(ops [][]predicate.Operand) error {
	if ops == nil || a.cols == nil {
		if ops != nil || a.cols != nil {
			return fmt.Errorf("columns present %t, operands read %t", a.cols != nil, ops != nil)
		}
		return nil
	}
	for pos, s := range a.stacks {
		if len(a.cols.sides[pos]) != len(ops[pos]) {
			return fmt.Errorf("position %d: %d columns for %d operands", pos, len(a.cols.sides[pos]), len(ops[pos]))
		}
		for k, col := range a.cols.sides[pos] {
			if len(col) != len(s.items) {
				return fmt.Errorf("position %d column %d: %d entries for %d instances", pos, k, len(col), len(s.items))
			}
			for i := range col {
				if !col[i].Same(ops[pos][k].Load(&s.items[i])) {
					return fmt.Errorf("position %d column %d entry %d (ts=%d) differs from its instance's load", pos, k, i, s.items[i].TS)
				}
			}
		}
	}
	return nil
}
