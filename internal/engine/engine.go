// Package engine defines the interface every pattern-matching engine in
// this library implements: the in-order baseline, the out-of-order kernel
// (the paper's contribution) under either emission policy, and the layers
// composed around it (the K-slack levee, the policy-switching hybrid). The
// benchmark harness, the runtime pipeline, and the public facade all
// program against this interface.
package engine

import (
	"io"

	"oostream/internal/event"
	"oostream/internal/metrics"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// Engine consumes a stream of events one at a time and produces matches.
//
// Events must carry unique, pre-assigned Seq numbers (the generator or
// ingestor assigns them); engines use Seq for tie-breaking and match
// identity, never for ordering assumptions. Engines are not safe for
// concurrent Process calls; wrap them in a runtime pipeline for
// channel-based use.
type Engine interface {
	// Name identifies the strategy, e.g. "inorder", "kslack", "native".
	Name() string
	// Process ingests one event and returns any matches it emits.
	Process(e event.Event) []plan.Match
	// Flush signals end-of-stream: the engine seals all pending state and
	// returns the final matches. After Flush, Process must not be called.
	Flush() []plan.Match
	// Metrics returns a snapshot of the engine's counters.
	Metrics() metrics.Snapshot
	// StateSize returns the current number of buffered items (stack
	// instances, reorder buffers, negative stores, pending matches).
	StateSize() int
}

// Observable is implemented by engines that can bind their measurements
// to the live observability layer. Observe must be called before the first
// Process call: series points the engine's collector at a registry-owned
// obsv.Series (nil keeps the private one), and hook installs a TraceHook
// fired on match-lifecycle steps (nil disables tracing at one-branch
// cost). Wrapper engines forward Observe to their inner engine where that
// is meaningful.
type Observable interface {
	Observe(series *obsv.Series, hook obsv.TraceHook)
}

// LatencySampled is implemented by engines that stamp wall-clock stage
// boundaries on sampled event spans. SetLatencySampler must be called
// before the first Process call; a nil sampler (the default) keeps every
// stamp site a one-branch no-op. Wrapper engines forward to the layers
// that own a stage boundary.
type LatencySampled interface {
	SetLatencySampler(ls *obsv.LatencySampler)
}

// SetLatencySampler installs the sampler on en when it participates in
// latency attribution; engines without stage boundaries are skipped.
func SetLatencySampler(en Engine, ls *obsv.LatencySampler) {
	if l, ok := en.(LatencySampled); ok {
		l.SetLatencySampler(ls)
	}
}

// Provenancer is implemented by engines that can attach lineage records
// to the matches they emit. EnableProvenance must be called before the
// first Process call; once on, every emitted match carries a non-nil
// Prov. Wrapper engines forward to their inner engine and augment the
// records they relay (shard index, restamped emit clock).
type Provenancer interface {
	EnableProvenance()
}

// Introspectable is implemented by engines that can report a read-only
// view of their live state. StateSnapshot is NOT safe to call concurrently
// with Process — callers that serve snapshots over HTTP take them from the
// processing goroutine and publish via an atomic pointer (see cmd/esprun).
type Introspectable interface {
	StateSnapshot() *provenance.StateSnapshot
}

// Checkpointer is implemented by engines whose full state can be
// serialized for crash recovery: a restored engine continues the stream
// exactly where the checkpointed one stopped. The native engine and the
// sequential sharded engine over native parts implement it.
type Checkpointer interface {
	// Checkpoint serializes the engine's state. The engine may keep
	// processing afterwards; the snapshot is taken synchronously.
	Checkpoint(w io.Writer) error
}

// Advancer is implemented by engines that support heartbeats
// (punctuation): Advance tells the engine that the source guarantees no
// future event will carry a timestamp below ts − K, letting it seal
// pending output and purge state during stream silence.
type Advancer interface {
	// Advance moves the engine's clock to at least ts and returns any
	// matches that become emittable.
	Advance(ts event.Time) []plan.Match
}

// BatchProcessor is implemented by engines with a first-class batch
// admission path. ProcessBatch(batch) must return exactly the
// concatenation of Process(e) over the batch in order — same matches,
// same retractions, same lineage, same trace operations (purge timing
// excepted: engines for which purge cadence is provably output-invisible
// may defer it to the batch boundary). The contract is enforced by the
// differential harness (difftest.RunBatch).
type BatchProcessor interface {
	// ProcessBatch ingests a batch of events in order and returns the
	// matches they emit, amortizing per-call overhead (shared output
	// slice, deferred purge and gauge publication).
	ProcessBatch(batch []event.Event) []plan.Match
}

// ProcessBatch feeds a batch through an engine's native batch path when
// it has one, falling back to per-event Process calls otherwise. Either
// way the result equals the per-event concatenation.
func ProcessBatch(en Engine, batch []event.Event) []plan.Match {
	if bp, ok := en.(BatchProcessor); ok {
		return bp.ProcessBatch(batch)
	}
	var out []plan.Match
	for _, e := range batch {
		out = append(out, en.Process(e)...)
	}
	return out
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
