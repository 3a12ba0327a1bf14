// Package engine defines the one contract every pattern-matching engine in
// this library implements — the out-of-order kernel (the paper's
// contribution) under either emission policy, and the layers composed
// around it (the K-slack levee, the policy-switching hybrid, the
// aggregation wrapper, the multi-query dispatcher behind a levee, the
// write-ahead-logged supervisor of a durable engine) — and Env,
// the one value through which a layer receives its instruments when it is
// built. The benchmark harness, the runtime pipeline, and the public facade
// all program against this package.
package engine

import (
	"errors"
	"io"

	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// Engine consumes a stream of events and produces matches.
//
// Events must carry unique, pre-assigned Seq numbers (the generator or
// ingestor assigns them); engines use Seq for tie-breaking and match
// identity, never for ordering assumptions. Engines are not safe for
// concurrent calls; wrap them in a runtime pipeline for channel-based use.
type Engine interface {
	// Name identifies the strategy, e.g. "native", "kslack", "speculate".
	Name() string
	// Process ingests one event and returns any matches it emits. The
	// caller owns the returned matches: the engine never writes them or
	// their Events again (the kernel and the aggregate operator carve them
	// from append-only blocks, plan.Blocks), and the same holds for what
	// ProcessBatch, Advance and Flush return.
	Process(e event.Event) []plan.Match
	// ProcessBatch ingests a batch of events in order and returns exactly
	// the concatenation of Process(e) over the batch — same matches, same
	// retractions, same lineage, same trace operations (purge timing
	// excepted: engines for which purge cadence is provably
	// output-invisible may defer it, and gauge publication, to the batch
	// boundary). The differential harness enforces it (difftest's Batch mode).
	ProcessBatch(batch []event.Event) []plan.Match
	// Advance is a heartbeat (punctuation): the source guarantees no future
	// event will carry a timestamp below ts − K. The engine moves its clock
	// to at least ts and returns the matches that become emittable, sealing
	// pending output and purging state during stream silence.
	Advance(ts event.Time) []plan.Match
	// Flush signals end-of-stream: the engine seals all pending state and
	// returns the final matches. After Flush, Process must not be called.
	Flush() []plan.Match
	// Checkpoint serializes the engine's full state synchronously, so that
	// a restored engine continues the stream exactly where this one
	// stopped; the engine may keep processing afterwards.
	Checkpoint(w io.Writer) error
	// Metrics returns a snapshot of the series the engine publishes into —
	// what a scrape of that series reads.
	Metrics() obsv.Snapshot
	// StateSize returns the current number of buffered items (stack
	// instances, reorder buffers, negative stores, pending matches).
	StateSize() int
	// StateSnapshot returns a read-only view of the engine's live state.
	// It is NOT safe to call concurrently with Process — callers that
	// serve snapshots over HTTP take them from the processing goroutine and
	// publish via an atomic pointer (see cmd/esprun).
	StateSnapshot() *provenance.StateSnapshot
}

// ErrNoCheckpoint is what the supervisor's Checkpoint returns, wrapped: its
// state is its store.
var ErrNoCheckpoint = errors.New("engine does not support checkpointing")

// Env is the set of instruments one layer is built with. It is passed to
// the layer's constructor (and to its Restore function, so a restored
// engine is instrumented like a fresh one) and never again: there is no
// way to attach an instrument late. The zero value means "no instruments":
// private counters, no tracing, no span stamps, no lineage.
//
// Which layer of a composition receives which field is decided in one
// place, the root package's builder (see DESIGN.md, "Engine contract and
// Env"); a layer uses what it is handed and forwards nothing.
type Env struct {
	// Series is the registry-owned series the layer publishes its counters
	// into; nil keeps them on a private series.
	Series *obsv.Series
	// Trace, when non-nil, receives the layer's match-lifecycle steps.
	Trace obsv.TraceHook
	// Latency, when non-nil, is stamped at the stage boundaries the layer
	// owns on sampled event spans.
	Latency *obsv.LatencySampler
	// Provenance makes the layer attach (or, for relaying layers, augment)
	// lineage records on the matches it emits.
	Provenance bool
	// Borrowed says the layer's caller reads every match a call returns
	// before its next call and keeps none, so the layer may lend each call's
	// output from the same blocks (plan.Blocks.Reuse). Only a caller that
	// makes one call at a time on the layer may set it.
	Borrowed bool
}

// Publish returns the tap of a layer called name: the Env's series (or a
// private one), its hook and its sampler, under the identity the layer's
// trace events and state snapshots carry — the series name when a named
// series was handed over, else name. On a carried series (Series.Inner) the
// tap writes only the rows the instrument table marks carried.
func (env Env) Publish(name string) Tap {
	s := env.Series
	if s == nil {
		s = obsv.NewSeries("")
	} else if s.Name() != "" {
		name = s.Name()
	}
	return Tap{Series: s, Spans: env.Latency, hook: env.Trace, name: name, inner: s.Inner()}
}

// Tap is what a layer reports its match-lifecycle steps through. Each step
// is one call, which moves the step's counters, abandons the event's span
// when the step ends it, and — only when a hook is set — builds one
// TraceEvent and hands it to the hook, so an unhooked step builds nothing
// and the counters and the trace ops cannot disagree. The series is
// embedded: a layer's other counters and gauges are its fields.
type Tap struct {
	*obsv.Series
	// Spans is the sampler the layer stamps its own stage boundaries on; a
	// nil sampler makes every stamp a no-op.
	Spans *obsv.LatencySampler
	hook  obsv.TraceHook
	name  string
	// inner skips every row nothing reads: set on a carried series.
	inner bool
}

// Name returns the identity the layer's trace events and state snapshots
// carry; unlike the series' own Name it is never empty.
func (t *Tap) Name() string { return t.name }

// Admit reports an event entering the layer: ooo marks it out of timestamp
// order, lag is its distance behind the watermark (clamped at 0).
func (t *Tap) Admit(e event.Event, ooo bool, lag event.Time) {
	if !t.inner {
		t.EventsIn.Inc()
		if ooo {
			t.EventsOOO.Inc()
		}
		t.WatermarkLag.Observe(uint64(max(lag, 0)))
	}
	t.trace(obsv.OpAdmit, e.Type, e.TS, e.Seq, 0)
}

// Reject reports an admitted event the layer discards: shed by overload
// degradation, else dropped for violating the disorder bound. Its span
// ends unfinished.
func (t *Tap) Reject(e event.Event, shed bool) {
	op := obsv.OpDrop
	if shed {
		op = obsv.OpShed
		if !t.inner {
			t.SheddedEvents.Inc()
		}
	} else {
		t.EventsLate.Inc()
	}
	t.Spans.Abandon(e.Seq)
	t.trace(op, e.Type, e.TS, e.Seq, 0)
}

// Push reports e inserted into the stack of pattern position pos, and as a
// repair the fixups instances whose predecessor pointer it became.
func (t *Tap) Push(e event.Event, pos, fixups int) {
	if fixups > 0 && !t.inner {
		t.Repairs.Add(uint64(fixups))
	}
	t.trace(obsv.OpStackPush, e.Type, e.TS, e.Seq, pos)
	if fixups > 0 {
		t.trace(obsv.OpRepair, e.Type, e.TS, e.Seq, fixups)
	}
}

// Trigger reports a construction probe triggered by e at position pos.
func (t *Tap) Trigger(e event.Event, pos int) {
	if !t.inner {
		t.Probes.Inc()
	}
	t.trace(obsv.OpTrigger, e.Type, e.TS, e.Seq, pos)
}

// Emit reports a match the layer emits, an insert or a retraction. For an
// insert, logical is the emission clock less the match's last timestamp
// (clamped at 0) and arrival the arrivals between its completion and its
// emission. The trace event counts the match's events, or its window's
// for an aggregate, and names the match when it carries lineage.
func (t *Tap) Emit(m *plan.Match, logical event.Time, arrival uint64) {
	op := obsv.OpEmit
	switch {
	case m.Kind == plan.Retract:
		op = obsv.OpRetract
		if !t.inner {
			t.Retractions.Inc()
		}
	case !t.inner:
		t.Matches.Inc()
		t.LogicalLat.Observe(uint64(max(logical, 0)))
		t.ArrivalLat.Observe(arrival)
	}
	if t.hook == nil {
		return
	}
	te := obsv.TraceEvent{Op: op, Engine: t.name, TS: m.Last().TS, Seq: m.EmitSeq, N: len(m.Events)}
	if m.Agg != nil {
		te.N = int(m.Agg.Count)
	}
	if m.Prov != nil {
		te.Match = m.Prov.MatchKey()
	}
	t.hook.Trace(te)
}

// Purge reports a purge pass that reclaimed n items up to ts.
func (t *Tap) Purge(ts event.Time, n int) {
	t.PurgeCalls.Inc()
	t.Purged.Add(uint64(n))
	t.trace(obsv.OpPurge, "", ts, 0, n)
}

// Mark reports a step of the stream rather than of an event: a heartbeat
// promising ts, a flush at clock ts, a checkpoint of n bytes, or a switch
// to the policy typ releasing n matches.
func (t *Tap) Mark(op obsv.Op, typ string, ts event.Time, n int) {
	switch {
	case t.inner:
	case op == obsv.OpCheckpoint:
		t.Checkpoints.Inc()
		t.CheckpointBytes.Set(int64(n))
	case op == obsv.OpSwitch:
		t.Switches.Inc()
	}
	t.trace(op, typ, ts, 0, n)
}

// trace hands the hook one step, when there is a hook.
func (t *Tap) trace(op obsv.Op, typ string, ts event.Time, seq event.Seq, n int) {
	if t.hook != nil {
		t.hook.Trace(obsv.TraceEvent{Op: op, Engine: t.name, Type: typ, TS: ts, Seq: seq, N: n})
	}
}

// Drain runs a whole finite stream through an engine and returns every
// match (Process results plus Flush).
func Drain(en Engine, events []event.Event) []plan.Match {
	var out []plan.Match
	for _, e := range events {
		out = append(out, en.Process(e)...)
	}
	return append(out, en.Flush()...)
}
