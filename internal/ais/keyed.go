package ais

import (
	"fmt"
	"slices"

	"oostream/internal/event"
	"oostream/internal/predicate"
)

// KeyedStacks partitions Active Instance Stacks by an equivalence-class
// key, the SASE optimization for queries whose components are all linked
// by equality on one attribute (e.g. the canonical RFID query's item id):
// only instances sharing the trigger's key can ever bind into a match, so
// insertion, RIP fix-up, and construction walk the trigger's key group
// instead of every instance in the window.
//
// Each group is a full Stacks value with the usual sorted-stack invariants;
// the keyed layer adds the routing map, an O(1) incrementally maintained
// total size, and one expiry order per stack class (Due) through which a
// purge pass reaches the groups holding something below the horizon — and
// only those — dropping the ones it leaves empty (bounding the map at the
// number of keys live inside the purge horizon). A dropped group keeps its
// arrays and waits on a free list for the next new key, so a stream of
// short-lived keys allocates no group once warm; groups in the map and on
// the list together never outnumber the map's peak. Each group has an id,
// its index among all of them, and the expiry orders name groups by id:
// their entries carry no pointer.
//
// Callers canonicalize keys (event.Value.MapKey / plan.KeyOf) before
// routing, so Equal-comparing values share a group.
type KeyedStacks struct {
	n      int
	groups map[event.Value]*group
	// all holds every group, in the map or on the free list, at its id.
	all  []*group
	free []*group
	// due[c] holds one entry per live instance of class c, in every group:
	// {instance timestamp, its group's id}. Insert adds the entry and the
	// pass that purges the instance pops it, with the same horizon and the
	// same comparison, so entries and live instances correspond one to one
	// between passes (CheckDue).
	due  []Due[uint32]
	size int
	// lay is the layout every group's stacks fork (NewKeyedClasses); nil
	// when each position has a stack of its own and construction reads no
	// operand.
	lay *layout
}

// group is one key's stacks. It carries the key so that a purge reaching it
// through the order can take it out of the map once it is empty.
type group struct {
	Stacks
	key event.Value
	id  uint32
}

// NewKeyed creates a keyed AIS with n positions per key group, each with a
// stack of its own.
func NewKeyed(n int) *KeyedStacks { return NewKeyedClasses(nil, make([][]predicate.Operand, n)) }

// NewKeyedClasses creates a keyed AIS with len(ops) positions per key
// group. Positions of one class (Classes; nil: a class each) share a stack,
// into whose columns every instance loads the operands ops[pos] of each of
// the class's positions (Stacks.Columns).
func NewKeyedClasses(class []int, ops [][]predicate.Operand) *KeyedStacks {
	n := len(ops)
	if !slices.ContainsFunc(ops, func(o []predicate.Operand) bool { return len(o) > 0 }) {
		ops = nil
	}
	return &KeyedStacks{n: n, groups: make(map[event.Value]*group),
		due: make([]Due[uint32], classCount(class, n)), lay: newLayout(class, ops, n)}
}

// Positions returns the number of pattern positions per group.
func (k *KeyedStacks) Positions() int { return k.n }

// Groups returns the number of live key groups.
func (k *KeyedStacks) Groups() int { return len(k.groups) }

// Group returns the stacks for a key, or nil when the key has no live
// instances.
func (k *KeyedStacks) Group(key event.Value) *Stacks {
	if g := k.groups[key]; g != nil {
		return &g.Stacks
	}
	return nil
}

// Insert routes e to its key group (taking one from the free list, or
// creating it, on the key's first use) and inserts at position pos — once
// for its whole class — as Stacks.Insert does, returning e's index in its
// stack and the group for construction to walk.
func (k *KeyedStacks) Insert(key event.Value, pos int, e event.Event) (int, *Stacks) {
	g, ok := k.groups[key]
	if !ok {
		if n := len(k.free); n > 0 {
			g, k.free = k.free[n-1], k.free[:n-1]
			g.key = key
		} else {
			g = &group{Stacks: Stacks{stacks: make([]Stack, len(k.due)), cols: k.lay.fork()}, key: key, id: uint32(len(k.all))}
			k.all = append(k.all, g)
		}
		k.groups[key] = g
	}
	k.size++
	k.due[k.lay.classOf(pos)].Insert(e.TS, g.id)
	return g.Insert(pos, e), &g.Stacks
}

// Size returns the total number of live instances across all groups in
// O(1): it is maintained incrementally by Insert and PurgeBefore.
func (k *KeyedStacks) Size() int { return k.size }

// PurgeBefore removes, at every position, the instances with a timestamp
// below horizon(pos) from every group — from a shared stack, those below
// the lowest horizon of its positions — and moves groups left empty to the
// free list, returning the total number of instances removed. The horizon is
// read once per position and only the groups with an entry below it are
// touched: the work is proportional to what expired, not to what is alive.
func (k *KeyedStacks) PurgeBefore(horizon func(pos int) event.Time) int {
	total := 0
	for c := range k.due {
		h := k.lay.horizon(c, horizon)
		k.due[c].PopBefore(h, func(id uint32) {
			g := k.all[id]
			s := &g.stacks[c]
			if len(s.items) == 0 || s.items[0].TS >= h {
				// An earlier entry of this pass purged the group already.
				return
			}
			total += g.purge(c, h)
			if g.Size() == 0 {
				delete(k.groups, g.key)
				k.free = append(k.free, g)
			}
		})
	}
	k.size -= total
	return total
}

// Range calls f for every live key group, in map order.
func (k *KeyedStacks) Range(f func(key event.Value, st *Stacks)) {
	for key, g := range k.groups {
		f(key, &g.Stacks)
	}
}

// CheckColumns verifies every group's columns against its stacks: per
// class, a column per operand of its positions, one entry per live
// instance, each equal to loading its operand from the instance again
// (predicate.Side.Same). Like CheckDue it is for tests and property checks.
func (k *KeyedStacks) CheckColumns() error {
	for _, g := range k.all {
		if err := g.checkLayout(k.lay); err != nil {
			return fmt.Errorf("key %s: %w", g.key, err)
		}
	}
	return nil
}

// CheckDue verifies the expiry orders against the stacks they index: per
// stack class the entries are sorted, every entry names a group that is in the
// map, and a group's entries are exactly the timestamps of its live
// instances; a group on the free list is empty and out of the map; every
// group is at its id in one or the other. It holds between passes; used by
// tests and property checks, not called on hot paths.
func (k *KeyedStacks) CheckDue() error {
	if len(k.all) != len(k.groups)+len(k.free) {
		return fmt.Errorf("%d groups made, %d in the map and %d free", len(k.all), len(k.groups), len(k.free))
	}
	for id, g := range k.all {
		if g.id != uint32(id) {
			return fmt.Errorf("group of key %s at id %d carries id %d", g.key, id, g.id)
		}
	}
	for _, g := range k.free {
		if g.Size() != 0 || k.groups[g.key] == g {
			return fmt.Errorf("free group of key %s: %d instances, in the map %t", g.key, g.Size(), k.groups[g.key] == g)
		}
	}
	for c := range k.due {
		filed, err := k.due[c].Filed()
		if err != nil {
			return fmt.Errorf("class %d: %w", c, err)
		}
		for id, tss := range filed {
			if int(id) >= len(k.all) {
				return fmt.Errorf("class %d: %d due entries name group %d of %d", c, len(tss), id, len(k.all))
			}
			if g := k.all[id]; k.groups[g.key] != g {
				return fmt.Errorf("class %d: %d due entries name a group of key %s that left the map", c, len(tss), g.key)
			}
		}
		k.Range(func(key event.Value, st *Stacks) {
			items, want := st.stacks[c].items, filed[k.groups[key].id]
			if err == nil && len(items) != len(want) {
				err = fmt.Errorf("class %d key %s: %d live instances, %d due entries", c, key, len(items), len(want))
			}
			for i := 0; err == nil && i < len(items); i++ {
				if items[i].TS != want[i] {
					err = fmt.Errorf("class %d key %s: instance %d has ts=%d, its due entry ts=%d", c, key, i, items[i].TS, want[i])
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
