// Package ais implements Active Instance Stacks, the stack-based data
// structure at the heart of SASE-style sequence scan and construction and of
// this paper's out-of-order extension.
//
// One stack per positive pattern position holds the *active instances*:
// events of the position's type that passed the position's local predicates
// and are still inside the purge horizon. Each instance records its RIP
// (rightmost viable predecessor): the latest instance in the previous stack
// with a strictly smaller timestamp. For in-order arrival the RIP is simply
// the top of the previous stack at insertion time; sequence construction
// walks RIP pointers to enumerate candidate bindings.
//
// The out-of-order extension of the paper keeps every stack sorted by
// (timestamp, arrival sequence) and supports:
//
//   - Insert at the timestamp-correct position (binary search), computing
//     the RIP of the new instance by binary search in the previous stack;
//   - RIP fix-up: instances in the *next* stack whose correct predecessor
//     becomes the new instance form a contiguous run and are repointed;
//   - purge of a timestamp-prefix of a stack once the safe clock passes it.
package ais

import (
	"fmt"
	"sort"
	"strings"

	"oostream/internal/event"
)

// Instance is an event held in a stack, with its predecessor pointer.
type Instance struct {
	// Event is the stored event.
	Event event.Event
	// RIP is the rightmost viable predecessor: the latest instance of the
	// previous stack with Event.TS strictly smaller than this instance's,
	// or nil for the first stack / no viable predecessor.
	RIP *Instance
}

// beforeInStack orders instances by (TS, Seq).
func beforeInStack(a, b *Instance) bool {
	return a.Event.Before(b.Event)
}

// Stack is one active-instance stack, sorted ascending by (TS, Seq).
type Stack struct {
	items []*Instance
}

// Len returns the number of live instances.
func (s *Stack) Len() int { return len(s.items) }

// At returns the i-th instance in timestamp order.
func (s *Stack) At(i int) *Instance { return s.items[i] }

// Top returns the latest instance, or nil when empty.
func (s *Stack) Top() *Instance {
	if len(s.items) == 0 {
		return nil
	}
	return s.items[len(s.items)-1]
}

// UpperBound returns the first index whose instance has TS >= ts, which is
// also the count of instances with TS < ts.
func (s *Stack) UpperBound(ts event.Time) int {
	return sort.Search(len(s.items), func(i int) bool {
		return s.items[i].Event.TS >= ts
	})
}

// FirstAfter returns the first index whose instance has TS > ts.
func (s *Stack) FirstAfter(ts event.Time) int {
	return sort.Search(len(s.items), func(i int) bool {
		return s.items[i].Event.TS > ts
	})
}

// LatestBefore returns the latest instance with TS strictly below ts, or nil.
func (s *Stack) LatestBefore(ts event.Time) *Instance {
	idx := s.UpperBound(ts)
	if idx == 0 {
		return nil
	}
	return s.items[idx-1]
}

// insertionPoint returns where inst belongs in (TS, Seq) order.
func (s *Stack) insertionPoint(inst *Instance) int {
	return sort.Search(len(s.items), func(i int) bool {
		return beforeInStack(inst, s.items[i])
	})
}

// insertAt splices inst into position idx.
func (s *Stack) insertAt(idx int, inst *Instance) {
	s.items = append(s.items, nil)
	copy(s.items[idx+1:], s.items[idx:])
	s.items[idx] = inst
}

// PurgeBefore removes every instance with TS < ts and returns how many were
// removed. The removed prefix is released for garbage collection.
func (s *Stack) PurgeBefore(ts event.Time) int {
	idx := s.UpperBound(ts)
	if idx == 0 {
		return 0
	}
	n := copy(s.items, s.items[idx:])
	for i := n; i < len(s.items); i++ {
		s.items[i] = nil
	}
	s.items = s.items[:n]
	return idx
}

// IsSorted verifies the (TS, Seq) order invariant (used by tests).
func (s *Stack) IsSorted() bool {
	for i := 1; i < len(s.items); i++ {
		if !beforeInStack(s.items[i-1], s.items[i]) {
			return false
		}
	}
	return true
}

// String renders the stack compactly for debugging.
func (s *Stack) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, inst := range s.items {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", inst.Event.TS)
	}
	b.WriteByte(']')
	return b.String()
}

// Stacks is the full AIS structure: one stack per positive position.
type Stacks struct {
	// stacks holds the positions by value: a key group is a Stacks, and RFID
	// workloads open one for every third event.
	stacks []Stack
	// lastFix is the number of RIP repairs the most recent Insert caused —
	// the structural work an out-of-order insertion forces. Engines read it
	// via LastFixups right after Insert to feed repair metrics.
	lastFix int
}

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
// sets the new instance's RIP from the previous stack, and repoints the
// contiguous run of next-stack instances whose rightmost viable predecessor
// the new instance becomes. It returns the new instance.
//
// For in-order arrival (e later than everything seen) this degenerates to
// the classic SASE push: append, RIP = top of the previous stack.
func (a *Stacks) Insert(pos int, e event.Event) *Instance {
	inst := &Instance{Event: e}
	s := &a.stacks[pos]
	idx := s.insertionPoint(inst)
	s.insertAt(idx, inst)

	if pos > 0 {
		inst.RIP = a.stacks[pos-1].LatestBefore(e.TS)
	}
	a.lastFix = 0
	if pos+1 < len(a.stacks) {
		a.lastFix = a.fixupNext(pos+1, inst)
	}
	return inst
}

// LastFixups returns how many next-stack instances the most recent Insert
// repointed (0 for a plain in-order push).
func (a *Stacks) LastFixups() int { return a.lastFix }

// fixupNext repoints instances in stack nextPos whose correct RIP becomes
// inst, returning how many it repointed. Those instances x satisfy
// x.TS > inst.TS and have a current RIP ordered before inst (or none).
// Because stacks are sorted and the correct RIP is monotone in x, the run
// is contiguous and ends at the first x whose RIP already is inst or later.
func (a *Stacks) fixupNext(nextPos int, inst *Instance) int {
	next := &a.stacks[nextPos]
	n := 0
	for i := next.FirstAfter(inst.Event.TS); i < len(next.items); i++ {
		x := next.items[i]
		if x.RIP != nil && !beforeInStack(x.RIP, inst) {
			break
		}
		x.RIP = inst
		n++
	}
	return n
}

// PurgeBefore removes, at every position, instances with TS < horizon(pos).
// The per-position horizon function lets engines keep the final stack on a
// different schedule than intermediate stacks (see the purge rules in the
// core engine). It returns the total number purged.
//
// Purging can leave RIP pointers referencing purged instances; that is safe
// because construction never dereferences a RIP outside the window horizon,
// and it is the paper's behaviour: purge reclaims instances wholesale
// without touching survivors.
func (a *Stacks) PurgeBefore(horizon func(pos int) event.Time) int {
	total := 0
	for i := range a.stacks {
		total += a.stacks[i].PurgeBefore(horizon(i))
	}
	return total
}

// CheckRIPInvariant verifies that every instance's RIP equals the latest
// previous-stack instance with a strictly smaller timestamp. Used by tests
// and property checks; not called on hot paths. Instances whose correct RIP
// was purged are skipped (their stored RIP is stale by design).
func (a *Stacks) CheckRIPInvariant() error {
	for pos := 1; pos < len(a.stacks); pos++ {
		prev := &a.stacks[pos-1]
		for _, x := range a.stacks[pos].items {
			want := prev.LatestBefore(x.Event.TS)
			if want == nil {
				// Either no viable predecessor ever existed (RIP nil) or
				// the predecessor was purged (stale pointer allowed).
				continue
			}
			if x.RIP != want {
				return fmt.Errorf("position %d instance ts=%d: RIP=%v, want ts=%d",
					pos, x.Event.TS, ripTS(x), want.Event.TS)
			}
		}
	}
	return nil
}

func ripTS(x *Instance) any {
	if x.RIP == nil {
		return nil
	}
	return x.RIP.Event.TS
}
