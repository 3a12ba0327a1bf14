package oostream

import (
	"errors"
	"io"
	"slices"

	"oostream/internal/engine"
	"oostream/internal/obsv"
	"oostream/internal/runtime"
)

// Why a call is refused after Flush or Kill; Err reports it.
var (
	errSealed = errors.New("oostream: the stream is sealed: Process, ProcessBatch and Advance are refused after Flush")
	errKilled = errors.New("oostream: killed")
)

// facade is what Engine and QuerySet share: one engine.Engine driven through
// one method set, in memory or durable. A durable facade's engine is the
// runtime.Supervisor, which logs every event before its engine sees it and
// refuses what it cannot make durable — a call before Start, an event with
// Seq 0, Advance — recording why in its sticky Err. The facade itself
// refuses every call after Flush, in either mode. A refused call returns nil
// and nothing panics.
type facade struct {
	inner engine.Engine
	// sup is inner when the facade is durable, nil in memory.
	sup     *runtime.Supervisor
	nextSeq Seq
	// shut is what a Process, ProcessBatch or Advance records in err once
	// Flush or Kill has run; nil while the stream is open.
	shut error
	err  error
	// lat is the wall-clock span sampler LatencyReport reads (nil unless
	// latency attribution is configured). spans is the one the facade opens
	// spans on: lat in memory; nil when durable, where the supervisor opens
	// them once it has admitted the call.
	lat, spans *obsv.LatencySampler
}

func inMemory(inner engine.Engine, lat *obsv.LatencySampler) facade {
	return facade{inner: inner, lat: lat, spans: lat}
}

func durable(sup *runtime.Supervisor, lat *obsv.LatencySampler) facade {
	return facade{inner: sup, sup: sup, lat: lat}
}

// Start readies the stream. A durable engine must call it before its first
// event: it restores the newest valid checkpoint in the directory, replays
// the log behind it, and returns the matches a crash interrupted (completed
// by replay but never delivered); on a fresh directory it returns none. In
// memory there is nothing to recover: Start returns nil, nil.
func (f *facade) Start() ([]Match, error) {
	if f.sup == nil {
		return nil, nil
	}
	return f.sup.Start()
}

// Process ingests one event and returns the matches it emits; a QuerySet's
// carry their query's id in Match.Query. In memory an event with Seq 0 is
// given the next arrival sequence number, and one carrying a Seq keeps it
// (useful when the caller needs stable match identity across strategies). A
// durable engine needs a unique non-zero Seq on every event — admission
// deduplicates by it across restarts — and commits the matches it returns
// as delivered before returning them.
//
// The returned matches are the caller's to keep: the engine never writes
// them or their Events again, and each slice's capacity ends at its length,
// so an append never reaches another call's results. They share backing
// arrays with other calls' results: a kept match keeps at most one block
// of 65 matches (6.6 KiB) and one of 292 events (16 KiB) alive, more only
// after a call that returned more than a block holds. Copy a match and its
// Events to keep less.
//
// After Flush the stream is sealed: pending negation output has been
// finalized, so further events would silently produce wrong results.
// Process then returns nil and records the refusal in Err, as it does for
// every misuse (on a durable engine also a call before Start, or Seq 0).
func (f *facade) Process(ev Event) []Match {
	if f.shut != nil {
		return f.refuse()
	}
	f.assign(&ev)
	f.spans.Begin(ev.Seq)
	ms := f.inner.Process(ev)
	f.spans.Finish(ev.Seq)
	return slices.Clip(ms)
}

// ProcessBatch ingests a slice of events through the engine's batch path
// and returns the matches they emit, in the same order per-event Process
// calls would (the engine contract's ProcessBatch clause, enforced by the
// differential harness). Batching amortizes per-event overhead — shared
// output slice, purge passes and gauge updates deferred to the batch
// boundary — without changing output, retractions, lineage, or trace
// semantics. A durable engine keeps per-event durability: each event is
// logged before it is processed and its matches committed before the next
// is offered, and a failure stops the batch with the committed matches
// returned.
//
// A nil or empty batch is a documented no-op: it returns nil and leaves
// all subsequent output unchanged. Seq assignment, refusals and what the
// returned matches share match Process; assigned numbers are written into
// the caller's slice in place.
func (f *facade) ProcessBatch(events []Event) []Match {
	if f.shut != nil {
		return f.refuse()
	}
	for i := range events {
		f.assign(&events[i])
		f.spans.Begin(events[i].Seq)
	}
	ms := f.inner.ProcessBatch(events)
	for i := range events {
		f.spans.Finish(events[i].Seq)
	}
	return slices.Clip(ms)
}

// ProcessAll ingests a finite slice and returns all matches, including the
// end-of-stream flush.
func (f *facade) ProcessAll(events []Event) []Match {
	var out []Match
	for _, ev := range events {
		out = append(out, f.Process(ev)...)
	}
	return append(out, f.Flush()...)
}

// Advance sends a heartbeat (punctuation): the source promises that stream
// time has reached ts, even if no event carries that timestamp. Engines use
// it to seal pending negation output and purge state through silent
// periods; every strategy supports it. A durable engine refuses it (its log
// records no heartbeats, so recovery could not replay what one emitted), as
// both kinds do after Flush. The returned matches share what Process's do.
func (f *facade) Advance(ts Time) []Match {
	if f.shut != nil {
		return f.refuse()
	}
	return slices.Clip(f.inner.Advance(ts))
}

// Flush seals the stream: pending negation output is finalized (a durable
// engine logs end-of-stream first, so a crash mid-flush replays to the same
// final matches). A second Flush is a no-op returning nil. The returned
// matches share what Process's do.
func (f *facade) Flush() []Match {
	if f.shut != nil {
		return nil
	}
	f.shut = errSealed
	return slices.Clip(f.inner.Flush())
}

// Err returns the first failure or refused call, or nil. It is sticky: a
// durable engine that failed (a store error, a panic) or was killed
// refuses every later call.
func (f *facade) Err() error {
	if f.sup != nil && f.sup.Err() != nil {
		return f.sup.Err()
	}
	return f.err
}

// Close cleanly seals a durable engine's store; the directory stays
// resumable. In memory there is nothing to close.
func (f *facade) Close() error {
	if f.sup == nil {
		return nil
	}
	return f.sup.Close()
}

// Kill simulates a process crash, for tests: a durable engine drops its
// store's handles without syncing (reopen the directory with a fresh engine
// to recover). Either kind fails sticky.
func (f *facade) Kill() {
	if f.sup != nil {
		f.sup.Kill()
	}
	f.shut = errKilled
	f.refuse()
}

func (f *facade) refuse() []Match {
	if f.err == nil {
		f.err = f.shut
	}
	return nil
}

// assign numbers an in-memory event without a Seq in arrival order. A
// durable engine numbers nothing: admission and replay key on the caller's
// Seq, and the supervisor refuses 0.
func (f *facade) assign(ev *Event) {
	switch {
	case ev.Seq > f.nextSeq:
		f.nextSeq = ev.Seq
	case ev.Seq == 0 && f.sup == nil:
		f.nextSeq++
		ev.Seq = f.nextSeq
	}
}

// Metrics returns a snapshot of the counters; a durable engine's carry the
// fault-tolerance counters (duplicate suppressions, checkpoint count, size
// and duration) too.
func (f *facade) Metrics() Metrics { return f.inner.Metrics() }

// StateSize returns the current buffered-item count.
func (f *facade) StateSize() int { return f.inner.StateSize() }

// StateSnapshot returns a read-only view of the live state: per-position
// stack depths, the heaviest key groups, negation-store sizes, buffer
// occupancy, clock and safe horizon, purge frontier, lineage retention, the
// latency digest, and for a durable engine its match-sequence and commit
// horizons (nil before Start). A QuerySet's aggregates its queries'. It is
// NOT synchronized with Process: call it from the processing goroutine
// (between events) or while the engine is idle.
func (f *facade) StateSnapshot() *StateSnapshot {
	snap := f.inner.StateSnapshot()
	if snap != nil {
		snap.Latency = f.lat.Report()
	}
	return snap
}

// LatencyReport returns the sampled wall-clock latency attribution digest:
// span accounting, the end-to-end wall histogram, the per-stage
// decomposition (whose sum equals the wall total by construction), and the
// SLO burn-rate windows when configured. Returns nil when latency
// attribution is disabled.
func (f *facade) LatencyReport() *LatencyReport { return f.lat.Report() }

// Checkpoint serializes the state for crash recovery: RestoreEngine (or
// RestoreQuerySet) continues the stream exactly where this one stopped.
// Every strategy and every QuerySet support it; only a durable engine
// returns an error, since its checkpoints are its directory's. The
// auto-assigned Seq counter is not part of a checkpoint: feed events with
// explicit Seq values across the restore boundary.
func (f *facade) Checkpoint(w io.Writer) error {
	blob, err := engine.Seal(f.inner.Checkpoint)
	if err == nil {
		_, err = w.Write(blob)
	}
	return err
}

// Raw exposes the engine behind the facade for harnesses that compose
// engines directly: the strategy composition (or the multi-query set) in
// memory, the supervisor when durable. It shares all state with the facade —
// use one or the other, not both. Raw().Process does not assign Seq and does
// not refuse after Flush.
func (f *facade) Raw() RawEngine { return f.inner }
