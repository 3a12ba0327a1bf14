// Package ordered wraps any exact engine so that matches are *emitted* in
// timestamp order (by last element, ties broken by match key), despite
// out-of-order processing inside. Native out-of-order construction emits
// matches in completion order — a match completed by a very late event
// appears after matches that are later in stream time; some consumers
// (sequenced logs, downstream in-order operators) need the emission order
// to follow stream time instead.
//
// The wrapper holds finished matches in a min-heap and releases one once
// the safe clock (maxTS − K, tracked from the events it forwards) passes
// the match's last timestamp: every match still to come ends at or after
// the safe clock, so nothing can precede a released match. The cost is the
// same kind of latency the engine's negation sealing already pays —
// bounded by K — applied to all results.
package ordered

import (
	"container/heap"
	"fmt"
	"io"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/metrics"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// Engine wraps an inner engine with ordered emission. It takes no
// engine.Env: the wrapper measures nothing of its own (its buffered matches
// show up in StateSize, which the inner engine's collector reports), adds
// no stage boundary (the time a match waits in the order buffer is match
// latency, not event latency), and releases the inner engine's lineage
// records untouched — every instrument belongs to the inner engine.
type Engine struct {
	inner   engine.Engine
	k       event.Time
	clock   event.Time
	started bool
	buf     matchHeap
}

var _ engine.Engine = (*Engine)(nil)

// New wraps inner. K must match the inner engine's disorder bound. The
// inner engine must not produce retractions (speculative engines cannot be
// order-buffered: a retraction may refer to an already-released match);
// Process panics if one appears — configuration errors, not data errors.
func New(inner engine.Engine, k event.Time) (*Engine, error) {
	if k < 0 {
		return nil, fmt.Errorf("K must be >= 0, got %d", k)
	}
	return &Engine{inner: inner, k: k}, nil
}

// Name implements engine.Engine.
func (en *Engine) Name() string { return "ordered(" + en.inner.Name() + ")" }

// Metrics implements engine.Engine (the inner engine's counters; emission
// reordering does not change what was measured).
func (en *Engine) Metrics() metrics.Snapshot { return en.inner.Metrics() }

// Checkpoint implements engine.Engine: the order buffer has no durable
// format.
func (en *Engine) Checkpoint(io.Writer) error {
	return fmt.Errorf("%s: %w", en.Name(), engine.ErrNoCheckpoint)
}

// StateSnapshot implements engine.Engine: the inner engine's view, with the
// order buffer's occupancy added and the wrapper's name.
func (en *Engine) StateSnapshot() *provenance.StateSnapshot {
	s := en.inner.StateSnapshot()
	s.Engine = en.Name()
	s.BufferLen += en.buf.Len()
	return s
}

// StateSize implements engine.Engine: inner state plus buffered matches.
func (en *Engine) StateSize() int { return en.inner.StateSize() + en.buf.Len() }

// Process implements engine.Engine.
func (en *Engine) Process(e event.Event) []plan.Match {
	matches := en.inner.Process(e)
	if e.TS > en.clock || !en.started {
		en.clock = e.TS
		en.started = true
	}
	return en.pushInto(matches, nil)
}

// ProcessBatch implements engine.Engine. Release must interleave
// with admission per event: the inner engine can emit a match whose last
// timestamp lies below an *earlier* event's safe point (a drained pending,
// for example), so releasing only at the batch boundary against the final
// clock would order the batch's emissions differently than the per-event
// path. The wrapper therefore advances the clock and drains the heap after
// every event, amortizing only the output slice.
func (en *Engine) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	for i := range batch {
		e := batch[i]
		matches := en.inner.Process(e)
		if e.TS > en.clock || !en.started {
			en.clock = e.TS
			en.started = true
		}
		out = en.pushInto(matches, out)
	}
	return out
}

// Advance implements engine.Engine.
func (en *Engine) Advance(ts event.Time) []plan.Match {
	matches := en.inner.Advance(ts)
	if ts > en.clock || !en.started {
		en.clock = ts
		en.started = true
	}
	return en.pushInto(matches, nil)
}

// Flush implements engine.Engine: everything remaining is released in
// order.
func (en *Engine) Flush() []plan.Match {
	out := en.pushInto(en.inner.Flush(), nil)
	for en.buf.Len() > 0 {
		out = append(out, heap.Pop(&en.buf).(plan.Match))
	}
	return out
}

func (en *Engine) pushInto(matches []plan.Match, out []plan.Match) []plan.Match {
	for _, m := range matches {
		if m.Kind == plan.Retract {
			panic("ordered: inner engine produced a retraction; wrap a conservative strategy")
		}
		heap.Push(&en.buf, m)
	}
	safe := en.clock - en.k
	for en.buf.Len() > 0 && en.buf[0].Last().TS < safe {
		out = append(out, heap.Pop(&en.buf).(plan.Match))
	}
	return out
}

// matchHeap orders matches by (last TS, key).
type matchHeap []plan.Match

func (h matchHeap) Len() int { return len(h) }
func (h matchHeap) Less(i, j int) bool {
	ti, tj := h[i].Last().TS, h[j].Last().TS
	if ti != tj {
		return ti < tj
	}
	return h[i].Key() < h[j].Key()
}
func (h matchHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x any)   { *h = append(*h, x.(plan.Match)) }
func (h *matchHeap) Pop() any {
	old := *h
	n := len(old)
	out := old[n-1]
	old[n-1] = plan.Match{}
	*h = old[:n-1]
	return out
}
