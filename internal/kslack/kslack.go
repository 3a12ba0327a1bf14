// Package kslack implements the K-slack reorder buffer: the classic
// "levee" defense against out-of-order arrival that the paper contrasts
// with its native approach. Events are held in (timestamp, sequence) order
// and released in that order once the watermark maxSeen − K passes them.
// Under the disorder bound (no event delayed more than K time units) the
// released stream is perfectly sorted, so the engine downstream needs no
// disorder tolerance of its own (K=0) to produce exact results — at the
// price of buffering memory and up to K added latency on every result.
//
// The order is the engine's one release-by-watermark queue
// (internal/queue), over entries that carry no pointer: a slot names an
// event by its sequence number (the tie among events due together) and its
// index in an arena the buffer owns, where freed indexes are reused. A late
// splice or a release then moves 24-byte entries with no GC write barrier,
// and a buffer whose releases keep pace with its arrivals allocates
// nothing: every release goes into one slice the buffer reuses.
package kslack

import (
	"math"

	"oostream/internal/event"
	"oostream/internal/queue"
)

// Buffer is a K-slack reorder buffer. The zero value is not usable; use
// NewBuffer.
type Buffer struct {
	k event.Time
	// bound, when non-nil, makes the slack dynamic: it is loaded (one
	// atomic read in the adaptive controller) at every push/advance and
	// folded into a monotone frontier, so a shrinking bound can never move
	// the watermark backwards — releases stay sorted no matter how K moves.
	bound    func() event.Time
	frontier event.Time
	held     queue.Queue[slot]
	// events is the arena the slots index; free lists the indexes whose
	// event has left, zeroed so that the arena keeps nothing alive.
	events []event.Event
	free   []uint32
	// out is the slice every release is written into, valid until the next
	// call that releases.
	out     []event.Event
	maxSeen event.Time
	started bool
	dropped uint64
}

// slot is a held event's queue entry: its sequence number, which orders the
// events due at one timestamp as event.Event.Before does, and its index in
// the arena.
type slot struct {
	seq event.Seq
	i   uint32
}

func (s slot) before(t slot) bool { return s.seq < t.seq }

// NewBuffer creates a reorder buffer with static slack k (logical
// milliseconds).
func NewBuffer(k event.Time) *Buffer {
	return &Buffer{k: k, held: queue.Queue[slot]{Tie: slot.before}}
}

// hold files e in the queue under a free arena index.
func (b *Buffer) hold(e event.Event) {
	var i uint32
	if n := len(b.free) - 1; n >= 0 {
		i, b.free = b.free[n], b.free[:n]
		b.events[i] = e
	} else {
		i = uint32(len(b.events))
		b.events = append(b.events, e)
	}
	b.held.Insert(e.TS, slot{e.Seq, i})
}

// release appends the slot's event to out and frees its index.
func (b *Buffer) release(s slot) {
	b.out = append(b.out, b.events[s.i])
	b.events[s.i] = event.Event{}
	b.free = append(b.free, s.i)
}

// newBufferDynamic creates a reorder buffer whose slack is re-read from
// bound at every push/advance (the adaptive controller's EffectiveK).
// The release watermark is the monotone frontier max over history of
// (maxSeen − bound()): a growing bound takes effect immediately (the
// frontier stops advancing), a shrinking bound only lets future arrivals
// advance it faster. Every admitted event's timestamp is ≥ the frontier at
// admission ≥ maxSeen − max bound ever returned, so the released stream
// equals what a static buffer with K = max bound observed would release
// over the same admitted events.
func newBufferDynamic(bound func() event.Time) *Buffer {
	b := NewBuffer(0)
	b.bound, b.frontier = bound, minTime
	return b
}

// MaxSeen returns the maximum timestamp observed (via Push or Advance) and
// whether anything has been observed at all.
func (b *Buffer) MaxSeen() (event.Time, bool) { return b.maxSeen, b.started }

// pending returns a sorted copy of the still-buffered events, for
// checkpointing. The buffer is unchanged.
func (b *Buffer) pending() []event.Event {
	out := make([]event.Event, 0, b.held.Len())
	b.held.Each(func(_ event.Time, s slot) { out = append(out, b.events[s.i]) })
	return out
}

// restore puts checkpointed state back (see pending and MaxSeen for the
// capture side): the watermark position and the events above it, in
// whatever order the file lists them — inserting sorts them.
func (b *Buffer) restore(maxSeen event.Time, started bool, pending []event.Event) {
	b.maxSeen, b.started = maxSeen, started
	for _, e := range pending {
		b.hold(e)
	}
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return b.held.Len() }

// Dropped returns how many events were discarded for violating the bound.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// Watermark returns the current release watermark: maxSeen − K for static
// buffers, the monotone frontier for dynamic ones. Events at or below the
// watermark have been released (or dropped).
func (b *Buffer) Watermark() event.Time {
	if !b.started {
		// Nothing seen: nothing is releasable yet.
		return minTime
	}
	if b.bound != nil {
		return b.frontier
	}
	return event.SubSat(b.maxSeen, b.k)
}

// syncFrontier folds the current dynamic bound into the monotone frontier.
// Called after every maxSeen move (and bound read): the frontier only ever
// advances.
func (b *Buffer) syncFrontier() {
	if b.bound == nil || !b.started {
		return
	}
	if cand := event.SubSat(b.maxSeen, b.bound()); cand > b.frontier {
		b.frontier = cand
	}
}

// minTime is the watermark before anything is seen: no timestamp is below
// it, so no event is late against it.
const minTime = event.Time(math.MinInt64)

// Push inserts an event and returns the events that become releasable, in
// nondecreasing timestamp order, in a slice the buffer reuses: it is valid
// until the next Push, Advance, ShedOldest or Flush. An event arriving
// strictly below the current watermark violates the disorder bound and is
// dropped (counted via Dropped); an event exactly at the watermark (delay
// exactly K) is still safe — everything already released has a timestamp
// at or below it, so it is accepted and released immediately, matching the
// native engine's inclusive interpretation of the bound.
func (b *Buffer) Push(e event.Event) []event.Event {
	if b.started && e.TS < b.Watermark() {
		b.dropped++
		return nil
	}
	b.hold(e)
	return b.Advance(e.TS)
}

// Advance moves the watermark as if an event with timestamp ts had been
// seen, releasing everything at or below ts − K. Sources use this to
// propagate heartbeats/punctuation through silent periods. The slice is
// reused as Push's is.
func (b *Buffer) Advance(ts event.Time) []event.Event {
	if !b.started || ts > b.maxSeen {
		b.maxSeen = ts
		b.started = true
	}
	b.syncFrontier()
	b.out = b.out[:0]
	b.held.PopThrough(b.Watermark(), b.release)
	return b.out
}

// ShedOldest pops and returns the oldest buffered events until at most
// limit remain — the overload-degradation path. Shed events are discarded
// outright, never delivered downstream: the remaining minimum only
// rises, so subsequent releases stay sorted, and the net output over the
// surviving events is exactly what a run fed only the survivors produces.
// The slice is reused as Push's is.
func (b *Buffer) ShedOldest(limit int) []event.Event {
	if limit < 0 || b.held.Len() <= limit {
		return nil
	}
	b.out = b.out[:0]
	for b.held.Len() > limit {
		s, _ := b.held.Pop()
		b.release(s)
	}
	return b.out
}

// Flush releases everything regardless of the watermark (end of stream),
// into the slice Push reuses.
func (b *Buffer) Flush() []event.Event { return b.ShedOldest(0) }
