// Package queue is the one release-by-watermark queue: it holds items by
// timestamp and releases those a safe clock has passed. The K-slack reorder
// buffer, both SSC engines' pending bindings and every purge's expiry order
// are it (DESIGN.md §1 "Where an event is held").
package queue

import (
	"fmt"
	"slices"
	"sort"

	"oostream/internal/event"
)

// chunkLen entries fill a chunk: a late splice moves a few kilobytes at most.
const chunkLen = 128

// Queue keeps its items sorted by due time in chunks: an in-order insert
// appends to the last chunk, a late one is a binary search over the chunks
// and a splice inside one (a full chunk splits in two), a release drops a
// prefix. The zero value is an empty queue. Not safe for concurrent use.
type Queue[T any] struct {
	// Tie, when set, is the element type's own order among items due
	// together (a leaves before b); the rest leave in insertion order.
	Tie func(a, b T) bool
	// chunks hold the entries in order, none empty or beyond chunkLen. The
	// first one's live entries start at head, above popped and zeroed slots.
	chunks [][]entry[T]
	head   int
	size   int
	// spare are the spent chunks, kept for the next ones needed: a queue
	// whose releases keep pace with its inserts allocates nothing.
	spare [][]entry[T]
}

type entry[T any] struct {
	due  event.Time
	item T
}

// before reports whether x leaves strictly before y. The tie is kept out of
// line so that the comparison of due times inlines into Insert's searches.
func (q *Queue[T]) before(x, y *entry[T]) bool {
	return x.due < y.due || x.due == y.due && q.tied(x, y)
}

//go:noinline
func (q *Queue[T]) tied(x, y *entry[T]) bool { return q.Tie != nil && q.Tie(x.item, y.item) }

// Len returns the number of items held.
func (q *Queue[T]) Len() int { return q.size }

// Insert holds item until due, behind every item that is not after it.
func (q *Queue[T]) Insert(due event.Time, item T) {
	x := entry[T]{due, item}
	q.size++
	ci := len(q.chunks) - 1
	var c []entry[T]
	if ci >= 0 {
		c = q.chunks[ci]
	}
	i := len(c)
	if i > 0 && q.before(&x, &c[i-1]) {
		// Late: the first chunk that ends with an entry after x, and the
		// first such entry among its live ones.
		ci = sort.Search(ci, func(k int) bool { return q.before(&x, &q.chunks[k][len(q.chunks[k])-1]) })
		c, i = q.chunks[ci], 0
		if ci == 0 {
			i = q.head
		}
		i += sort.Search(len(c)-i, func(k int) bool { return q.before(&x, &c[i+k]) })
		if len(c) == chunkLen && ci == 0 && q.head > 0 {
			// Full but for the popped slots: the entries ahead of x move down.
			q.head--
			copy(c[q.head:], c[q.head+1:i])
			c[i-1] = x
			return
		}
	}
	if ci < 0 || len(c) == chunkLen {
		// No room: the upper half moves to a new chunk behind this one, or
		// nothing does when x goes at the end.
		mid := chunkLen / 2
		if i == len(c) {
			mid = i
		}
		var upper []entry[T]
		if n := len(q.spare) - 1; n >= 0 {
			upper, q.spare = q.spare[n][:0], q.spare[:n]
		}
		upper = append(slices.Grow(upper, chunkLen), c[mid:]...)
		q.chunks = slices.Insert(q.chunks, ci+1, upper)
		if clear(c[mid:]); ci >= 0 {
			q.chunks[ci] = c[:mid]
		}
		if c = c[:mid]; i >= mid {
			ci, c, i = ci+1, upper, i-mid
		}
	}
	c = append(c, x)
	copy(c[i+1:], c[i:])
	c[i] = x
	q.chunks[ci] = c
}

// Min returns the item that leaves next and when it is due.
func (q *Queue[T]) Min() (item T, due event.Time, ok bool) {
	if q.size > 0 {
		item, due = q.chunks[0][q.head].item, q.chunks[0][q.head].due
	}
	return item, due, q.size > 0
}

// Pop removes and returns the item that leaves next.
func (q *Queue[T]) Pop() (T, bool) {
	var x entry[T]
	if q.size == 0 {
		return x.item, false
	}
	c := q.chunks[0]
	x, c[q.head] = c[q.head], x
	q.size--
	if q.head++; q.head == len(c) {
		// The first chunk is spent: it joins the spares.
		q.spare, q.head = append(q.spare, c), 0
		q.chunks = slices.Delete(q.chunks, 0, 1)
	}
	return x.item, true
}

// PopThrough removes the items due at or before clock — the inclusive
// release, `ts <= clock` — and hands each to visit, which leaves q alone.
func (q *Queue[T]) PopThrough(clock event.Time, visit func(T)) {
	for q.size > 0 && q.chunks[0][q.head].due <= clock {
		x, _ := q.Pop()
		visit(x)
	}
}

// PopBefore is PopThrough for the exclusive release, `ts < horizon`.
func (q *Queue[T]) PopBefore(horizon event.Time, visit func(T)) {
	for q.size > 0 && q.chunks[0][q.head].due < horizon {
		x, _ := q.Pop()
		visit(x)
	}
}

// Each hands every held item to visit in the order they would leave.
func (q *Queue[T]) Each(visit func(due event.Time, item T)) {
	for ci, c := range q.chunks {
		if ci == 0 {
			c = c[q.head:]
		}
		for _, e := range c {
			visit(e.due, e.item)
		}
	}
}

// Check verifies that the items are held in the order they are to leave in.
func (q *Queue[T]) Check() error {
	var prev *entry[T]
	var err error
	q.Each(func(due event.Time, item T) {
		x := &entry[T]{due, item}
		if prev != nil && err == nil && q.before(x, prev) {
			err = fmt.Errorf("queue: item due at %d held behind one due at %d", due, prev.due)
		}
		prev = x
	})
	return err
}
