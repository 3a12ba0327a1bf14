package ais

import (
	"oostream/internal/event"
	"oostream/internal/queue"
)

// Due is an expiry order over keyed state: one entry per purgeable element,
// filed (Insert) under the element's timestamp and naming the key group that
// holds it, so a purge pass visits the groups with something below the
// horizon (PopBefore, the comparison Stack.PurgeBefore makes) and no others.
// An item with several entries due is popped once for each: the caller tells
// a repeat from its own state. The zero value is an empty order.
type Due[T comparable] struct{ queue.Queue[T] }

// Filed returns, per item, the timestamps its entries are filed under, in
// order, or an error when the entries are not sorted (invariant checks).
func (d *Due[T]) Filed() (map[T][]event.Time, error) {
	filed := make(map[T][]event.Time)
	d.Each(func(ts event.Time, item T) { filed[item] = append(filed[item], ts) })
	return filed, d.Check()
}
