package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
	"oostream/internal/recovery"
)

// SupervisorOptions configure a Supervisor.
type SupervisorOptions struct {
	// Env carries the supervisor's own instruments: the series its
	// fault-tolerance counters publish into, the hook that sees checkpoint
	// steps, and the latency sampler (the supervisor owns the WAL stage:
	// append plus commit barrier). The inner engine's instruments are not
	// the supervisor's business: the New and Restore factories close over
	// the Env they build it with, so every Start — on a fresh directory or a
	// reopened one — yields an engine instrumented the same way, and nothing
	// is re-applied afterwards. A single inner engine typically
	// shares the supervisor's series: the instrument sets are disjoint
	// (engines never write the fault-tolerance counters), so one named
	// series carries the full picture.
	Env engine.Env
	// New builds a fresh engine. Required.
	New func() (engine.Engine, error)
	// Restore rebuilds an engine from the sections its Checkpoint method
	// wrote. Required. Replay drops the restored engine's first emissions,
	// by count, as many as the log holds committed past the snapshot: they
	// were delivered before the crash.
	Restore func(s *engine.Sections) (engine.Engine, error)
	// CheckpointEvery takes a durable checkpoint every this many offered
	// events. 0 disables periodic checkpoints.
	CheckpointEvery int
}

// supervMeta is the supervisor's own state stored alongside an engine
// snapshot: the duplicate horizon. (Metas written before lateness was the
// engine's alone also carry an admission clock, which decoding ignores.)
type supervMeta struct {
	Seen map[uint64]event.Time `json:"seen,omitempty"`
}

// Supervisor wraps an engine with the fault-tolerance runtime: every
// offered event is logged to a durable store before processing, matches
// carry monotone sequence numbers committed to the log on emission, and
// admission suppresses duplicates by Seq. What is late is the engine's to
// judge, against its own clock and bound, as in memory.
//
// It is one more engine.Engine. Process, ProcessBatch and Flush return the
// committed matches; a failure is recorded in Err (sticky) and every later
// call returns nil. What the log cannot make durable is refused the same
// way: a call before Start, an event whose Seq is 0 (admission and replay
// key on it), an event after Flush, and Advance (the log records no
// heartbeats). Checkpoint returns an error wrapping engine.ErrNoCheckpoint:
// the supervisor's state is its store.
//
// Crash model: the process may die at any event boundary, plus a torn
// final WAL record from dying mid-append. Reopening the store and calling
// Start restores the engine from the newest valid checkpoint, replays the
// WAL suffix, suppresses match emissions already committed before the
// crash, and returns the emissions the crash interrupted. Exactly-once
// delivery holds under the transactional-sink assumption: a match
// returned by Process is considered delivered (its commit marker is
// logged before the call returns).
//
// A panic — the engine's, or a Trace hook's — is a crash: the supervisor
// recovers it into Err, naming the event and the panic value, and writes
// nothing more to the store. The event was logged before it was processed,
// so reopening the directory replays it as recovery from any crash does;
// a poison event, one that panics on every run, fails that Start too.
type Supervisor struct {
	opts  SupervisorOptions
	store *recovery.Store
	en    engine.Engine
	// tap holds the instruments of opts.Env: the hook sees checkpoint
	// steps, and the sampler opens the span at offer, stamps
	// StageWAL around the append and commit barriers and closes it after
	// commit.
	tap engine.Tap

	// Admission state (rebuilt deterministically on replay).
	seen     map[uint64]event.Time
	admitted uint64

	matchSeq  uint64 // cumulative match emissions (monotone)
	committed uint64 // highest commit marker written to the WAL
	durable   uint64 // suppression horizon from the last recovery

	sinceCkpt int
	// at is the Seq of the event in hand, which a panic names; 0 in Flush
	// and Mutate.
	at event.Seq

	running bool
	flushed bool
	err     error
}

// NewSupervisor wraps store and opts. Call Start before processing: it
// performs recovery (a no-op on a fresh directory) and builds the engine.
func NewSupervisor(store *recovery.Store, opts SupervisorOptions) (*Supervisor, error) {
	if opts.New == nil || opts.Restore == nil {
		return nil, errors.New("supervisor: New and Restore factories are required")
	}
	s := &Supervisor{
		opts:  opts,
		store: store,
		seen:  make(map[uint64]event.Time),
		tap:   opts.Env.Publish("supervised"),
	}
	return s, nil
}

// Start recovers durable state and readies the supervisor: on a fresh
// directory it just builds the engine; on a crashed one it restores the
// newest valid checkpoint, replays the WAL, and returns the matches that
// the crash interrupted (completed but not yet committed as delivered).
func (s *Supervisor) Start() (out []plan.Match, err error) {
	if s.running {
		return nil, errors.New("supervisor: already started")
	}
	if s.err != nil {
		return nil, s.err
	}
	defer s.crashed(&err)
	if out, err = s.rebuild(); err != nil {
		return nil, s.fail(err)
	}
	s.running = true
	return out, nil
}

// Err returns the sticky failure, if any: the first error or refused call.
func (s *Supervisor) Err() error { return s.err }

func (s *Supervisor) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// crashed is deferred by every call that runs the engine. It turns a panic
// into the sticky failure, passed back through err when err is not nil;
// the call returns no matches.
func (s *Supervisor) crashed(err *error) {
	r := recover()
	if r == nil {
		return
	}
	in := "Flush or Mutate"
	if s.at != 0 {
		in = fmt.Sprintf("event Seq %d", s.at)
	}
	s.fail(fmt.Errorf("supervisor: panic in %s: %v", in, r))
	if err != nil {
		*err = s.err
	}
}

// open reports whether the stream takes a call, recording why not: a sticky
// failure, no Start yet, or a Flush already logged.
func (s *Supervisor) open() bool {
	switch {
	case s.err != nil:
	case !s.running:
		s.fail(errors.New("supervisor: Start not called"))
	case s.flushed:
		s.fail(errors.New("supervisor: stream already flushed"))
	default:
		return true
	}
	return false
}

// Name identifies the supervised composition, e.g. "supervised(native)".
func (s *Supervisor) Name() string {
	if s.en == nil {
		return "supervised"
	}
	return "supervised(" + s.en.Name() + ")"
}

// Process offers one event: it is logged to the WAL, dropped if admission
// remembers its Seq, processed, and any surviving matches are committed as
// delivered before they are returned. The event must carry a unique
// non-zero Seq.
func (s *Supervisor) Process(e event.Event) []plan.Match {
	if !s.open() {
		return nil
	}
	if e.Seq == 0 {
		s.fail(errors.New("supervisor: event has Seq 0: admission and replay key on a caller-assigned Seq"))
		return nil
	}
	// The span opens at offer and closes once the event's matches are
	// committed (a buffering engine holds it until release).
	s.tap.Spans.Begin(e.Seq)
	defer s.tap.Spans.Finish(e.Seq)
	defer s.crashed(nil)
	if err := s.store.Append(e); err != nil {
		s.fail(err)
		return nil
	}
	s.tap.Spans.StageEnd(e.Seq, obsv.StageWAL)
	out, err := s.offer(e, false)
	// Second WAL stamp: the commit barrier inside offer/emit. The two
	// stamps sum into one StageWAL total per span; the inner engine's
	// construction stamp between them keeps the segments disjoint.
	s.tap.Spans.StageEnd(e.Seq, obsv.StageWAL)
	if err != nil {
		s.fail(err)
		return nil
	}
	s.sinceCkpt++
	if s.shouldCheckpoint() {
		if err := s.checkpoint(); err != nil {
			s.fail(err)
		}
	}
	return out
}

// ProcessBatch offers a batch of events. The fault-tolerance machinery is
// strictly per event — each event is WAL-appended before it is processed,
// and each event's matches are committed past the durable horizon before
// the next event is offered — so an interrupted batch behaves exactly like
// an interrupted per-event stream: recovery replays the logged prefix and
// suppresses matches already delivered, never double-emitting past the
// commit horizon. The batch entry therefore amortizes only the call and
// output-slice overhead, deliberately not the durability barriers.
// Processing stops at the first failure; matches from events already
// committed are returned.
func (s *Supervisor) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	for _, e := range batch {
		out = append(out, s.Process(e)...)
		if s.err != nil {
			break
		}
	}
	return out
}

// Advance is refused: the log records events and the flush, not
// heartbeats, so recovery could not replay what one emitted.
func (s *Supervisor) Advance(event.Time) []plan.Match {
	s.fail(errors.New("supervisor: Advance refused: the write-ahead log records no heartbeats"))
	return nil
}

// Flush seals the stream: end-of-stream is logged first, so a crash
// mid-flush replays to the same final matches. A second Flush returns nil.
func (s *Supervisor) Flush() []plan.Match {
	if s.flushed || !s.open() {
		return nil
	}
	defer s.crashed(nil)
	if err := s.store.AppendFlush(); err != nil {
		s.fail(err)
		return nil
	}
	out, err := s.flush()
	if err != nil {
		s.fail(err)
		return nil
	}
	return out
}

// Checkpoint refuses: the supervisor's state is its store, checkpointed
// there every SupervisorOptions.CheckpointEvery events.
func (s *Supervisor) Checkpoint(io.Writer) error {
	return fmt.Errorf("supervisor: %w: its checkpoints are its store's", engine.ErrNoCheckpoint)
}

// Metrics returns the supervisor's series: its fault-tolerance counters
// and, when the engines it builds publish into the same series (as the
// facade's builder arranges), theirs.
func (s *Supervisor) Metrics() obsv.Snapshot { return s.tap.Snapshot() }

// StateSize returns the inner engine's buffered-item count.
func (s *Supervisor) StateSize() int {
	if s.en == nil {
		return 0
	}
	return s.en.StateSize()
}

// Engine exposes the live inner engine for read-only inspection (query
// listings, per-query metrics); nil before Start. Mutations must go
// through Mutate.
func (s *Supervisor) Engine() engine.Engine { return s.en }

// Mutate applies a control-plane change (e.g. a multi-query Register or
// Unregister on the live Engine) and makes it durable by forcing a
// checkpoint, so the mutation survives a kill/recover: the WAL only
// replays events, never mutations, so a mutation is durable exactly when
// a checkpoint capturing it is.
//
// Matches returned by fn (an Unregister's final flush) are handed back
// OUTSIDE the exactly-once horizon: they carry no match sequence numbers
// and no commit marker, because replay cannot regenerate them — counting
// them against the horizon would misalign suppression for every later
// event-driven emission. A crash racing the mutation therefore re-runs it
// from the caller's perspective (the pre-mutation checkpoint restores),
// making mutation-flush output at-least-once rather than exactly-once.
//
// An error from fn leaves the supervisor healthy (the mutation is assumed
// rejected before changing state); a checkpoint failure, or a panic, is
// sticky.
func (s *Supervisor) Mutate(fn func() ([]plan.Match, error)) (ms []plan.Match, err error) {
	if s.err != nil {
		return nil, s.err
	}
	if !s.running {
		return nil, errors.New("supervisor: Start not called")
	}
	if s.flushed {
		return nil, errors.New("supervisor: stream already flushed")
	}
	s.at = 0
	defer s.crashed(&err)
	if ms, err = fn(); err != nil {
		return nil, err
	}
	if err := s.checkpoint(); err != nil {
		return ms, s.fail(err)
	}
	return ms, nil
}

// StateSnapshot returns the inner engine's view annotated with the
// supervisor's match-sequence and commit horizons, or nil when no engine
// is built yet.
func (s *Supervisor) StateSnapshot() *provenance.StateSnapshot {
	if s.en == nil {
		return nil
	}
	snap := s.en.StateSnapshot()
	snap.Engine = s.Name()
	snap.MatchSeq = s.matchSeq
	snap.Committed = s.committed
	return snap
}

// Kill simulates a crash: the store's handles are dropped without
// syncing and the supervisor fails sticky. Reopen the directory with a
// fresh Store and Supervisor to recover.
func (s *Supervisor) Kill() {
	s.store.Kill()
	s.fail(errors.New("supervisor: killed"))
}

// Close cleanly seals the durable store.
func (s *Supervisor) Close() error {
	return s.store.Close()
}

// offer runs one event through admission and the engine, returning the
// surviving (committed) matches.
func (s *Supervisor) offer(e event.Event, replaying bool) ([]plan.Match, error) {
	s.at = e.Seq
	if !s.admit(e, replaying) {
		if !replaying {
			// A duplicate leaves the pipeline here; its span must not skew
			// the wall histogram.
			s.tap.Spans.Abandon(e.Seq)
		}
		return nil, nil
	}
	return s.emit(s.en.Process(e))
}

// admit decides whether the engine sees e: once per Seq. It must be
// deterministic in the event sequence alone: replay re-runs it to rebuild
// the duplicate horizon. The counter is not bumped during replay (that
// happened the first time).
func (s *Supervisor) admit(e event.Event, replaying bool) bool {
	if _, dup := s.seen[e.Seq]; dup {
		if !replaying {
			s.tap.DuplicatesSuppressed.Inc()
		}
		return false
	}
	s.seen[e.Seq] = e.TS
	s.admitted++
	if s.admitted%1024 == 0 {
		s.purgeSeen()
	}
	return true
}

// purgeSeen forgets the Seqs no duplicate can reuse: the engine drops any
// event below its safe clock as late, a duplicate included.
func (s *Supervisor) purgeSeen() {
	horizon := s.en.StateSnapshot().Safe
	for seq, ts := range s.seen {
		if ts < horizon {
			delete(s.seen, seq)
		}
	}
}

// emit assigns sequence numbers to a batch of matches, suppresses those
// already delivered before a crash, and commits the rest to the WAL.
func (s *Supervisor) emit(ms []plan.Match) ([]plan.Match, error) {
	if len(ms) == 0 {
		return nil, nil
	}
	var out []plan.Match
	for _, m := range ms {
		s.matchSeq++
		if s.matchSeq <= s.durable {
			s.tap.DuplicatesSuppressed.Inc()
			continue
		}
		out = append(out, m)
	}
	if s.matchSeq > s.committed {
		if err := s.store.CommitMatches(s.matchSeq); err != nil {
			return out, err
		}
		s.committed = s.matchSeq
	}
	return out, nil
}

// flush seals the engine and commits what it emits.
func (s *Supervisor) flush() ([]plan.Match, error) {
	s.flushed, s.at = true, 0
	return s.emit(s.en.Flush())
}

func (s *Supervisor) shouldCheckpoint() bool {
	return s.opts.CheckpointEvery > 0 && s.sinceCkpt >= s.opts.CheckpointEvery
}

// checkpoint durably snapshots the engine plus the supervisor's duplicate
// horizon and rotates the WAL.
func (s *Supervisor) checkpoint() error {
	meta := supervMeta{Seen: s.seen}
	start := time.Now()
	n, err := s.store.Checkpoint(s.en.Checkpoint, meta, s.matchSeq)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.tap.CheckpointDuration.Set(int64(time.Since(start)))
	s.tap.Mark(obsv.OpCheckpoint, "", s.en.StateSnapshot().Clock, n)
	s.sinceCkpt = 0
	return nil
}

// rebuild reconstructs the supervisor from durable state: restore the
// newest valid checkpoint (or a fresh engine), replay the WAL suffix
// through the same duplicate check, suppress emissions numbered at or
// below the durable commit horizon, and return the rest.
func (s *Supervisor) rebuild() ([]plan.Match, error) {
	rec, err := s.store.Recover()
	if err != nil {
		return nil, err
	}
	var en engine.Engine
	if rec.Snapshot != nil {
		en, err = s.opts.Restore(rec.Snapshot)
		if err == nil {
			err = rec.Snapshot.Done()
		}
		if err != nil {
			return nil, fmt.Errorf("restore engine snapshot: %w", err)
		}
	} else if en, err = s.opts.New(); err != nil {
		return nil, err
	}
	s.en = en
	if rec.Snapshot != nil && len(rec.Meta) > 0 {
		var meta supervMeta
		if err := json.Unmarshal(rec.Meta, &meta); err != nil {
			return nil, fmt.Errorf("decode supervisor meta: %w", err)
		}
		if meta.Seen != nil {
			s.seen = meta.Seen
		}
	}
	s.matchSeq = rec.CkptMatches
	s.committed = rec.Matches
	s.durable = rec.Matches

	var out []plan.Match
	for _, e := range rec.Replay {
		ms, err := s.offer(e, true)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	if rec.Flushed {
		ms, err := s.flush()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	// Collapse a non-trivial WAL into a fresh checkpoint so the next
	// crash replays from here instead of re-walking this log.
	if len(rec.Replay) > 0 && s.opts.CheckpointEvery > 0 && !s.flushed {
		if err := s.checkpoint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
