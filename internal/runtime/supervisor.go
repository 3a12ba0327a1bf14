package runtime

import (
	"bytes"
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

// AdmitPolicy decides what happens to events the admission-control layer
// rejects: duplicates (an already-seen Seq) and bound violators (timestamp
// below the admission clock minus K).
type AdmitPolicy int

const (
	// AdmitDrop silently drops rejected events, counting them.
	AdmitDrop AdmitPolicy = iota
	// AdmitDeadLetter routes rejected events to the DeadLetter channel
	// (best-effort, never blocking the hot path) and counts them.
	AdmitDeadLetter
)

// String names the policy.
func (p AdmitPolicy) String() string {
	if p == AdmitDeadLetter {
		return "deadletter"
	}
	return "drop"
}

// SupervisorOptions configure a Supervisor.
type SupervisorOptions struct {
	// Env carries the supervisor's own instruments: the series its
	// fault-tolerance counters publish into, the hook that sees checkpoint
	// and restart steps, and the latency sampler (the supervisor owns the
	// WAL stage: append plus commit barrier). The inner engine's instruments
	// are not the supervisor's business: the New and Restore factories close
	// over the Env they build it with, so every rebuild — first start, crash
	// restart, panic restart — yields an engine instrumented the same way,
	// and nothing is re-applied afterwards. A single inner engine typically
	// shares the supervisor's series: the instrument sets are disjoint
	// (engines never write the fault-tolerance counters), so one named
	// series carries the full picture.
	Env engine.Env
	// New builds a fresh engine. Required.
	New func() (engine.Engine, error)
	// Restore rebuilds an engine from a snapshot written by its
	// Checkpoint method. When nil the supervisor runs WAL-only: no
	// checkpoint files are written and recovery replays the full log. Give
	// one only for engines whose Checkpoint works. suppress is how many
	// matches the log holds committed past the snapshot: replay drops the
	// restored engine's first suppress emissions, by count, as delivered
	// before the crash, so a Restore that cannot promise the emission order
	// of the engine that wrote the snapshot must fail unless it is zero.
	Restore func(r io.Reader, suppress uint64) (engine.Engine, error)
	// K is the admission disorder bound: an event with TS < clock−K is a
	// bound violator (clock = max admitted timestamp). Use the engine's K.
	K event.Time
	// EngineBound leaves lateness to an engine whose bound moves (an
	// adaptive controller's): admission then rejects duplicates only, and
	// forgets an event's Seq once the engine's safe clock has passed its
	// timestamp, below which the engine drops any duplicate as late. K is
	// ignored.
	EngineBound bool
	// Policy is the admission policy for duplicates and bound violators.
	Policy AdmitPolicy
	// DeadLetter receives rejected events under AdmitDeadLetter. Sends
	// never block: if the channel is full the event is counted but lost.
	DeadLetter chan<- event.Event
	// CheckpointEvery takes a durable checkpoint every this many offered
	// events (when the engine supports snapshots). 0 disables periodic
	// checkpoints.
	CheckpointEvery int
	// MaxRestarts bounds consecutive panic restarts before the supervisor
	// fails sticky; the counter resets after a restart whose replay
	// completes. Default 3.
	MaxRestarts int
	// Backoff is the delay before the first restart, doubling per
	// consecutive restart up to BackoffMax. Defaults 10ms and 1s.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Sleep replaces time.Sleep between restarts (test hook).
	Sleep func(time.Duration)
	// FaultHook runs before every engine Process call (test hook for
	// panic injection). A panic from the hook is supervised exactly like
	// an engine panic.
	FaultHook func(e event.Event)
}

// supervMeta is the supervisor's own state stored alongside an engine
// snapshot: the admission clock and the duplicate horizon.
type supervMeta struct {
	Clock   event.Time            `json:"clock"`
	Started bool                  `json:"started"`
	Seen    map[uint64]event.Time `json:"seen,omitempty"`
}

// Supervisor wraps an engine with the fault-tolerance runtime: every
// offered event is logged to a durable store before processing, matches
// carry monotone sequence numbers committed to the log on emission,
// engine panics trigger restart-from-checkpoint with capped exponential
// backoff, and an admission-control layer filters duplicates and disorder
// bound violators under a configurable policy.
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
type Supervisor struct {
	opts  SupervisorOptions
	store *recovery.Store
	en    engine.Engine
	met   *obsv.Series

	// Admission state (rebuilt deterministically on replay).
	clock    event.Time
	started  bool
	seen     map[uint64]event.Time
	admitted uint64

	matchSeq  uint64 // cumulative match emissions (monotone)
	committed uint64 // highest commit marker written to the WAL
	durable   uint64 // suppression horizon from the last recovery

	sinceCkpt      int
	consecRestarts int

	running bool
	flushed bool
	err     error

	// The instruments of opts.Env: trace sees checkpoint and restart steps
	// under traceName; lat, when non-nil, stamps StageWAL around the append
	// and commit barriers on sampled spans.
	trace     obsv.TraceHook
	traceName string
	lat       *obsv.LatencySampler
}

// NewSupervisor wraps store and opts. Call Start before processing: it
// performs recovery (a no-op on a fresh directory) and builds the engine.
func NewSupervisor(store *recovery.Store, opts SupervisorOptions) (*Supervisor, error) {
	if opts.New == nil {
		return nil, errors.New("supervisor: New factory is required")
	}
	if opts.MaxRestarts <= 0 {
		opts.MaxRestarts = 3
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 10 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = time.Second
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	s := &Supervisor{
		opts:  opts,
		store: store,
		seen:  make(map[uint64]event.Time),
		trace: opts.Env.Trace,
		lat:   opts.Env.Latency,
	}
	s.met, s.traceName = opts.Env.Publish("supervised")
	return s, nil
}

// Start recovers durable state and readies the supervisor: on a fresh
// directory it just builds the engine; on a crashed one it restores the
// newest valid checkpoint, replays the WAL, and returns the matches that
// the crash interrupted (completed but not yet committed as delivered).
func (s *Supervisor) Start() ([]plan.Match, error) {
	if s.running {
		return nil, errors.New("supervisor: already started")
	}
	if s.err != nil {
		return nil, s.err
	}
	out, panicked, err := s.rebuild()
	if err != nil {
		return nil, s.fail(err)
	}
	if panicked {
		out, err = s.restartLoop()
		if err != nil {
			return nil, err
		}
	}
	s.consecRestarts = 0
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

// Process offers one event: it is logged to the WAL, filtered by
// admission control, processed under the panic guard (restarting from the
// latest checkpoint on panic), and any surviving matches are committed as
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
	s.lat.Begin(e.Seq)
	defer s.lat.Finish(e.Seq)
	if err := s.store.Append(e); err != nil {
		s.fail(err)
		return nil
	}
	s.lat.StageEnd(e.Seq, obsv.StageWAL)
	out, panicked, err := s.offer(e, false)
	// Second WAL stamp: the commit barrier inside offer/emit. The two
	// stamps sum into one StageWAL total per span; the inner engine's
	// construction stamp between them keeps the segments disjoint.
	s.lat.StageEnd(e.Seq, obsv.StageWAL)
	if err != nil {
		s.fail(err)
		return nil
	}
	if panicked {
		if out, err = s.restartLoop(); err != nil {
			return nil
		}
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
	if err := s.store.AppendFlush(); err != nil {
		s.fail(err)
		return nil
	}
	s.flushed = true
	ms, panicked := s.guardedFlush()
	if panicked {
		out, _ := s.restartLoop() // rebuild replays the flush marker too
		return out
	}
	out, err := s.emit(ms)
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
func (s *Supervisor) Metrics() obsv.Snapshot { return s.met.Snapshot() }

// StateSize returns the inner engine's buffered-item count.
func (s *Supervisor) StateSize() int {
	if s.en == nil {
		return 0
	}
	return s.en.StateSize()
}

// Engine exposes the live inner engine for read-only inspection (query
// listings, per-query metrics); nil before Start. The instance is replaced
// on every restart; do not retain it across calls. Mutations must go
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
// rejected before changing state); a checkpoint failure is sticky.
func (s *Supervisor) Mutate(fn func() ([]plan.Match, error)) ([]plan.Match, error) {
	if s.err != nil {
		return nil, s.err
	}
	if !s.running {
		return nil, errors.New("supervisor: Start not called")
	}
	if s.flushed {
		return nil, errors.New("supervisor: stream already flushed")
	}
	if !s.canSnapshot() {
		return nil, errors.New("supervisor: mutations require a checkpoint-capable engine and a Restore factory")
	}
	ms, err := fn()
	if err != nil {
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

// offer runs one event through admission and the guarded engine,
// returning the surviving (committed) matches.
func (s *Supervisor) offer(e event.Event, replaying bool) ([]plan.Match, bool, error) {
	if !s.admit(e, replaying) {
		if !replaying {
			// Admission-rejected (duplicate/late) events leave the pipeline
			// here; their spans must not skew the wall histogram.
			s.lat.Abandon(e.Seq)
		}
		return nil, false, nil
	}
	ms, panicked := s.guardedProcess(e)
	if panicked {
		return nil, true, nil
	}
	out, err := s.emit(ms)
	return out, false, err
}

// admit decides whether the engine sees e. It must be deterministic in
// the event sequence alone: replay re-runs it to rebuild the clock and
// duplicate horizon. Metrics and dead-letter delivery are suppressed
// during replay (they already happened the first time).
func (s *Supervisor) admit(e event.Event, replaying bool) bool {
	if _, dup := s.seen[e.Seq]; dup {
		if !replaying {
			s.met.DuplicatesSuppressed.Inc()
			if s.opts.Policy == AdmitDeadLetter {
				s.deadLetter(e)
			}
		}
		return false
	}
	if s.started && !s.opts.EngineBound && e.TS < s.clock-s.opts.K {
		if !replaying {
			if s.opts.Policy == AdmitDeadLetter {
				s.deadLetter(e)
			} else {
				s.met.EventsDropped.Inc()
			}
		}
		return false
	}
	s.seen[e.Seq] = e.TS
	s.started = true
	if e.TS > s.clock {
		s.clock = e.TS
	}
	s.admitted++
	if s.admitted%1024 == 0 {
		s.purgeSeen()
	}
	return true
}

// purgeSeen drops duplicate-horizon entries no duplicate can reuse: an
// event below clock−K fails the bound check before the duplicate check
// matters, and one below an EngineBound engine's safe clock is dropped by
// the engine.
func (s *Supervisor) purgeSeen() {
	horizon := s.clock - s.opts.K
	if s.opts.EngineBound {
		horizon = s.en.StateSnapshot().Safe
	}
	for seq, ts := range s.seen {
		if ts < horizon {
			delete(s.seen, seq)
		}
	}
}

func (s *Supervisor) deadLetter(e event.Event) {
	s.met.EventsDeadLettered.Inc()
	if s.opts.DeadLetter != nil {
		select {
		case s.opts.DeadLetter <- e:
		default:
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
			s.met.DuplicatesSuppressed.Inc()
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

func (s *Supervisor) guardedProcess(e event.Event) (out []plan.Match, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			out, panicked = nil, true
		}
	}()
	if s.opts.FaultHook != nil {
		s.opts.FaultHook(e)
	}
	return s.en.Process(e), false
}

func (s *Supervisor) guardedFlush() (out []plan.Match, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			out, panicked = nil, true
		}
	}()
	return s.en.Flush(), false
}

// canSnapshot reports whether checkpoints are worth writing: only when
// there is a way to read them back.
func (s *Supervisor) canSnapshot() bool { return s.opts.Restore != nil }

func (s *Supervisor) shouldCheckpoint() bool {
	return s.opts.CheckpointEvery > 0 && s.sinceCkpt >= s.opts.CheckpointEvery && s.canSnapshot()
}

// checkpoint durably snapshots the engine plus the supervisor's admission
// state and rotates the WAL.
func (s *Supervisor) checkpoint() error {
	meta := supervMeta{Clock: s.clock, Started: s.started, Seen: s.seen}
	start := time.Now()
	n, err := s.store.Checkpoint(s.en.Checkpoint, meta, s.matchSeq)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.met.Checkpoints.Inc()
	s.met.CheckpointBytes.Set(int64(n))
	s.met.CheckpointDuration.Set(int64(time.Since(start)))
	if s.trace != nil {
		s.trace.Trace(obsv.TraceEvent{Op: obsv.OpCheckpoint, Engine: s.traceName, TS: s.clock, N: n})
	}
	s.sinceCkpt = 0
	return nil
}

// rebuild reconstructs the supervisor from durable state: restore the
// newest valid checkpoint (or a fresh engine), replay the WAL suffix
// through the same admission logic, suppress emissions numbered at or
// below the durable commit horizon, and return the rest. panicked reports
// that replay hit a panic (the caller retries through the restart loop).
func (s *Supervisor) rebuild() (out []plan.Match, panicked bool, err error) {
	rec, err := s.store.Recover()
	if err != nil {
		return nil, false, err
	}
	var en engine.Engine
	if len(rec.Snapshot) > 0 {
		if s.opts.Restore == nil {
			return nil, false, errors.New("supervisor: found an engine snapshot but no Restore factory")
		}
		en, err = s.opts.Restore(bytes.NewReader(rec.Snapshot), rec.Matches-min(rec.Matches, rec.CkptMatches))
		if err != nil {
			return nil, false, fmt.Errorf("restore engine snapshot: %w", err)
		}
	} else {
		en, err = s.opts.New()
		if err != nil {
			return nil, false, err
		}
	}
	s.en = en
	s.clock, s.started = 0, false
	s.seen = make(map[uint64]event.Time)
	if len(rec.Snapshot) > 0 && len(rec.Meta) > 0 {
		var meta supervMeta
		if err := json.Unmarshal(rec.Meta, &meta); err != nil {
			return nil, false, fmt.Errorf("decode supervisor meta: %w", err)
		}
		s.clock, s.started = meta.Clock, meta.Started
		if meta.Seen != nil {
			s.seen = meta.Seen
		}
	}
	s.matchSeq = rec.CkptMatches
	s.committed = rec.Matches
	s.durable = rec.Matches
	s.flushed = false
	s.sinceCkpt = 0

	for _, e := range rec.Replay {
		ms, p, err := s.offer(e, true)
		if err != nil {
			return out, false, err
		}
		if p {
			return out, true, nil
		}
		out = append(out, ms...)
	}
	if rec.Flushed {
		ms, p := s.guardedFlush()
		if p {
			return out, true, nil
		}
		s.flushed = true
		emitted, err := s.emit(ms)
		if err != nil {
			return out, false, err
		}
		out = append(out, emitted...)
	}
	// Collapse a non-trivial WAL into a fresh checkpoint so the next
	// crash replays from here instead of re-walking this log.
	if len(rec.Replay) > 0 && s.opts.CheckpointEvery > 0 && s.canSnapshot() && !s.flushed {
		if err := s.checkpoint(); err != nil {
			return out, false, err
		}
	}
	return out, false, nil
}

// restartLoop recovers from an engine panic: restore the latest
// checkpoint and replay, backing off exponentially between attempts. A
// deterministic panic (a poison event at the WAL tail) re-fires on every
// replay and exhausts MaxRestarts into a sticky failure; a transient one
// clears and the replay's new emissions are returned.
func (s *Supervisor) restartLoop() ([]plan.Match, error) {
	backoff := s.opts.Backoff
	for {
		s.consecRestarts++
		if s.consecRestarts > s.opts.MaxRestarts {
			return nil, s.fail(fmt.Errorf("supervisor: engine panicked %d consecutive times; giving up", s.consecRestarts-1))
		}
		s.met.Restarts.Inc()
		if s.trace != nil {
			s.trace.Trace(obsv.TraceEvent{Op: obsv.OpRestart, Engine: s.traceName, TS: s.clock, N: s.consecRestarts})
		}
		s.opts.Sleep(backoff)
		backoff *= 2
		if backoff > s.opts.BackoffMax {
			backoff = s.opts.BackoffMax
		}
		out, panicked, err := s.rebuild()
		if err != nil {
			return nil, s.fail(err)
		}
		if !panicked {
			s.consecRestarts = 0
			return out, nil
		}
	}
}
