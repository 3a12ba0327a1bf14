package ais

import (
	"fmt"
	"sort"

	"oostream/internal/event"
)

// Due is an expiry order over keyed state: one entry per purgeable element,
// filed under the element's timestamp and naming the key group that holds
// it, so a purge pass visits the groups with something below the horizon and
// no others. Entries stay sorted by timestamp with the discipline Stack uses
// for instances: append when in order, binary-search splice when late, drop
// a prefix on purge. The zero value is an empty order.
type Due[T comparable] struct {
	// entries[head:] are the live entries. A pass only moves head; the
	// popped prefix is reclaimed when an Add finds the array full, so a pass
	// costs what it pops and not what stays.
	entries []dueEntry[T]
	head    int
}

type dueEntry[T comparable] struct {
	ts   event.Time
	item T
}

// Len returns the number of entries.
func (d *Due[T]) Len() int { return len(d.entries) - d.head }

// Add files item under ts.
func (d *Due[T]) Add(ts event.Time, item T) {
	if h := d.head; len(d.entries) == cap(d.entries) && 4*h >= len(d.entries) && h > 0 {
		// Full, and at least a quarter of it popped: slide the live entries
		// down instead of growing (at most three moves per slot regained).
		n := copy(d.entries, d.entries[h:])
		clear(d.entries[n:])
		d.entries, d.head = d.entries[:n], 0
	}
	d.entries = append(d.entries, dueEntry[T]{ts, item})
	live := d.entries[d.head:]
	n := len(live) - 1
	if n == 0 || live[n-1].ts <= ts {
		return
	}
	idx := sort.Search(n, func(i int) bool { return live[i].ts > ts })
	copy(live[idx+1:], live[idx:n])
	live[idx] = dueEntry[T]{ts, item}
}

// PopBefore removes every entry filed under a timestamp below horizon — the
// comparison Stack.PurgeBefore makes — and hands each one's item to visit,
// in timestamp order. An item with several entries due is visited once for
// each: the visitor tells a repeat from its own state.
func (d *Due[T]) PopBefore(horizon event.Time, visit func(T)) {
	h := d.head
	for ; h < len(d.entries) && d.entries[h].ts < horizon; h++ {
		visit(d.entries[h].item)
		d.entries[h] = dueEntry[T]{}
	}
	d.head = h
}

// Filed returns, per item, the timestamps its entries are filed under, in
// order, or an error when the entries are not sorted (invariant checks).
func (d *Due[T]) Filed() (map[T][]event.Time, error) {
	filed := make(map[T][]event.Time)
	live := d.entries[d.head:]
	for i, e := range live {
		if i > 0 && e.ts < live[i-1].ts {
			return nil, fmt.Errorf("due entry ts=%d filed after ts=%d", e.ts, live[i-1].ts)
		}
		filed[e.item] = append(filed[e.item], e.ts)
	}
	return filed, nil
}
