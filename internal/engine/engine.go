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
	// Process ingests one event and returns any matches it emits.
	Process(e event.Event) []plan.Match
	// ProcessBatch ingests a batch of events in order and returns exactly
	// the concatenation of Process(e) over the batch — same matches, same
	// retractions, same lineage, same trace operations (purge timing
	// excepted: engines for which purge cadence is provably
	// output-invisible may defer it, and gauge publication, to the batch
	// boundary). The differential harness enforces it (difftest.RunBatch).
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
}

// Publish returns the series the layer publishes into — the Env's, or a
// private one — and the identity its trace events and state snapshots
// carry: the series name when a named series was handed over, else the
// layer's own name.
func (env Env) Publish(name string) (*obsv.Series, string) {
	if env.Series == nil {
		return obsv.NewSeries(""), name
	}
	if env.Series.Name() != "" {
		name = env.Series.Name()
	}
	return env.Series, name
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
