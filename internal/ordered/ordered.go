// Package ordered wraps any exact engine so that matches are *emitted* in
// timestamp order (by last element, ties broken by match key), despite
// out-of-order processing inside. Native out-of-order construction emits
// matches in completion order — a match completed by a very late event
// appears after matches that are later in stream time; some consumers
// (sequenced logs, downstream in-order operators) need the emission order
// to follow stream time instead.
//
// The wrapper is a release policy of the queue every holder in the engine
// uses (internal/queue): it holds finished matches there in (last timestamp,
// match key) order and releases one once the safe clock (maxTS − K, tracked
// from the events it forwards) passes the match's last timestamp: every
// match still to come ends at or after the safe clock, so nothing can
// precede a released match. The cost is the same kind of latency the
// engine's negation sealing already pays — bounded by K — applied to all
// results.
package ordered

import (
	"fmt"
	"io"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/metrics"
	"oostream/internal/plan"
	"oostream/internal/provenance"
	"oostream/internal/queue"
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
	buf     queue.Queue[heldMatch]
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
	byKey := func(a, b heldMatch) bool { return a.key < b.key }
	return &Engine{inner: inner, k: k, buf: queue.Queue[heldMatch]{Tie: byKey}}, nil
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
	return en.take(e.TS, en.inner.Process(e), nil)
}

// ProcessBatch implements engine.Engine. Release must interleave
// with admission per event: the inner engine can emit a match whose last
// timestamp lies below an *earlier* event's safe point (a drained pending,
// for example), so releasing only at the batch boundary against the final
// clock would order the batch's emissions differently than the per-event
// path. The wrapper therefore advances the clock and drains the queue after
// every event, amortizing only the output slice.
func (en *Engine) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	for i := range batch {
		out = en.take(batch[i].TS, en.inner.Process(batch[i]), out)
	}
	return out
}

// Advance implements engine.Engine.
func (en *Engine) Advance(ts event.Time) []plan.Match {
	return en.take(ts, en.inner.Advance(ts), nil)
}

// Flush implements engine.Engine: everything remaining is released in
// order.
func (en *Engine) Flush() []plan.Match {
	out := en.take(en.clock, en.inner.Flush(), nil)
	for h, ok := en.buf.Pop(); ok; h, ok = en.buf.Pop() {
		out = append(out, h.m)
	}
	return out
}

// take moves the clock to ts, holds the matches the inner engine produced
// there and appends to out the ones the safe clock has passed, in order.
func (en *Engine) take(ts event.Time, matches, out []plan.Match) []plan.Match {
	if ts > en.clock || !en.started {
		en.clock, en.started = ts, true
	}
	for _, m := range matches {
		if m.Kind == plan.Retract {
			panic("ordered: inner engine produced a retraction; wrap a conservative strategy")
		}
		en.buf.Insert(m.Last().TS, heldMatch{m.Key(), m})
	}
	en.buf.PopBefore(en.clock-en.k, func(h heldMatch) { out = append(out, h.m) })
	return out
}

// heldMatch is a finished match held until the safe clock passes its last
// timestamp; key, rendered once, orders the matches that end together.
type heldMatch struct {
	key string
	m   plan.Match
}
