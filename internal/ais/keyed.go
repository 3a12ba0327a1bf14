package ais

import (
	"fmt"

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
// total size, and one expiry order per position (Due) through which a purge
// pass reaches the groups holding something below the horizon — and only
// those — dropping the ones it leaves empty (bounding the map at the number
// of keys live inside the purge horizon). A dropped group keeps its arrays
// and waits on a free list for the next new key, so a stream of short-lived
// keys allocates no group once warm; groups in the map and on the list
// together never outnumber the map's peak. Each group has an id, its index
// among all of them, and the expiry orders name groups by id: their entries
// carry no pointer.
//
// Callers canonicalize keys (event.Value.MapKey / plan.KeyOf) before
// routing, so Equal-comparing values share a group.
type KeyedStacks struct {
	n      int
	groups map[event.Value]*group
	// all holds every group, in the map or on the free list, at its id.
	all  []*group
	free []*group
	// due[pos] holds one entry per live instance at position pos, in every
	// group: {instance timestamp, its group's id}. Insert adds the entry and
	// the pass that purges the instance pops it, with the same horizon and
	// the same comparison, so entries and live instances correspond one to
	// one between passes (CheckDue).
	due  []Due[uint32]
	size int
	// ops[pos] are the operands every group's stack at pos loads into its
	// columns (NewKeyedColumns); nil when construction reads none.
	ops [][]predicate.Operand
}

// group is one key's stacks. It carries the key so that a purge reaching it
// through the order can take it out of the map once it is empty.
type group struct {
	Stacks
	key event.Value
	id  uint32
}

// NewKeyed creates a keyed AIS with n positions per key group.
func NewKeyed(n int) *KeyedStacks {
	return &KeyedStacks{n: n, groups: make(map[event.Value]*group), due: make([]Due[uint32], n)}
}

// NewKeyedColumns creates a keyed AIS with len(ops) positions per key group
// whose stacks load ops[pos] from every instance inserted at pos
// (Stacks.Column). With no operand at any position it is NewKeyed.
func NewKeyedColumns(ops [][]predicate.Operand) *KeyedStacks {
	k := NewKeyed(len(ops))
	for _, o := range ops {
		if len(o) > 0 {
			k.ops = ops
			break
		}
	}
	return k
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
// creating it, on the key's first use) and inserts at position pos as
// Stacks.Insert does, returning e's index in its stack and the group for
// construction to walk.
func (k *KeyedStacks) Insert(key event.Value, pos int, e event.Event) (int, *Stacks) {
	g, ok := k.groups[key]
	if !ok {
		if n := len(k.free); n > 0 {
			g, k.free = k.free[n-1], k.free[:n-1]
			g.key = key
		} else {
			g = &group{Stacks: Stacks{stacks: make([]Stack, k.n)}, key: key, id: uint32(len(k.all))}
			if k.ops != nil {
				g.cols = &columns{ops: k.ops, sides: make([][][]predicate.Side, k.n)}
				for pos := range g.cols.sides {
					g.cols.sides[pos] = make([][]predicate.Side, len(k.ops[pos]))
				}
			}
			k.all = append(k.all, g)
		}
		k.groups[key] = g
	}
	k.size++
	k.due[pos].Insert(e.TS, g.id)
	return g.Insert(pos, e), &g.Stacks
}

// Size returns the total number of live instances across all groups in
// O(1): it is maintained incrementally by Insert and PurgeBefore.
func (k *KeyedStacks) Size() int { return k.size }

// PurgeBefore removes, at every position, the instances with a timestamp
// below horizon(pos) from every group and moves groups left empty to the
// free list, returning the total number of instances removed. The horizon is
// read once per position and only the groups with an entry below it are
// touched: the work is proportional to what expired, not to what is alive.
func (k *KeyedStacks) PurgeBefore(horizon func(pos int) event.Time) int {
	total := 0
	for pos := range k.due {
		h := horizon(pos)
		k.due[pos].PopBefore(h, func(id uint32) {
			g := k.all[id]
			s := &g.stacks[pos]
			if len(s.items) == 0 || s.items[0].TS >= h {
				// An earlier entry of this pass purged the group already.
				return
			}
			total += g.purge(pos, h)
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

// CheckColumns verifies every group's columns against its stacks: a column
// per operand of the position, one entry per live instance, each equal to
// loading its operand from the instance again (predicate.Side.Same). Like
// CheckDue it is for tests and property checks.
func (k *KeyedStacks) CheckColumns() error {
	for _, g := range k.all {
		if err := g.checkColumns(k.ops); err != nil {
			return fmt.Errorf("key %s: %w", g.key, err)
		}
	}
	return nil
}

// CheckDue verifies the expiry orders against the stacks they index: per
// position the entries are sorted, every entry names a group that is in the
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
	for pos := range k.due {
		filed, err := k.due[pos].Filed()
		if err != nil {
			return fmt.Errorf("position %d: %w", pos, err)
		}
		for id, tss := range filed {
			if int(id) >= len(k.all) {
				return fmt.Errorf("position %d: %d due entries name group %d of %d", pos, len(tss), id, len(k.all))
			}
			if g := k.all[id]; k.groups[g.key] != g {
				return fmt.Errorf("position %d: %d due entries name a group of key %s that left the map", pos, len(tss), g.key)
			}
		}
		k.Range(func(key event.Value, st *Stacks) {
			items, want := st.stacks[pos].items, filed[k.groups[key].id]
			if err == nil && len(items) != len(want) {
				err = fmt.Errorf("position %d key %s: %d live instances, %d due entries", pos, key, len(items), len(want))
			}
			for i := 0; err == nil && i < len(items); i++ {
				if items[i].TS != want[i] {
					err = fmt.Errorf("position %d key %s: instance %d has ts=%d, its due entry ts=%d", pos, key, i, items[i].TS, want[i])
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
