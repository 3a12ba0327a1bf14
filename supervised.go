package oostream

import (
	"fmt"
	"io"

	"oostream/internal/engine"
	"oostream/internal/recovery"
	"oostream/internal/runtime"
)

// AdmitPolicy decides what the supervised runtime does with events its
// admission-control layer rejects: duplicates (an already-seen Seq) and
// disorder-bound violators (timestamp below the admission clock minus K).
// Under an adaptive controller (Config.Adaptive with Enabled or Limits) the
// engine alone decides what is late, by the bound the controller derives,
// and admission rejects duplicates only.
type AdmitPolicy = runtime.AdmitPolicy

// Admission policies, re-exported.
const (
	// AdmitDrop silently drops rejected events, counting them.
	AdmitDrop = runtime.AdmitDrop
	// AdmitDeadLetter routes rejected events to the DeadLetter channel
	// (best-effort, never blocking the hot path) and counts them.
	AdmitDeadLetter = runtime.AdmitDeadLetter
)

// SupervisorConfig configures the fault-tolerance runtime wrapped around
// an engine: where durable state lives, how often to checkpoint, and what
// to do with rejected events.
type SupervisorConfig struct {
	// Dir is the durable state directory (checkpoints + write-ahead log).
	// Required. Reopening the same directory resumes the stream.
	Dir string
	// CheckpointEvery takes a durable engine snapshot every this many
	// offered events. 0 disables periodic checkpoints (WAL-only recovery:
	// the full log replays on restart). Snapshots require a
	// checkpoint-capable engine (the native strategy); other strategies run
	// WAL-only regardless.
	CheckpointEvery int
	// Retain keeps the newest N checkpoints (older ones and their log
	// prefixes are pruned). 0 = default 3.
	Retain int
	// Policy is the admission policy; default AdmitDrop.
	Policy AdmitPolicy
	// DeadLetter receives rejected events under AdmitDeadLetter. Sends
	// never block: if the channel is full the event is counted but lost.
	DeadLetter chan<- Event
	// MaxRestarts bounds consecutive panic restarts before the supervisor
	// fails sticky. 0 = default 3.
	MaxRestarts int
	// SyncEveryEvent fsyncs the log after every append (maximum
	// durability, large throughput cost). Default: sync at checkpoints
	// and segment rotations only.
	SyncEveryEvent bool
	// DisableFsync skips fsync entirely (tests and benchmarks).
	DisableFsync bool
}

func (sc SupervisorConfig) validate() error {
	if sc.Dir == "" {
		return fmt.Errorf("SupervisorConfig.Dir is required")
	}
	if sc.CheckpointEvery < 0 {
		return fmt.Errorf("CheckpointEvery must be >= 0, got %d", sc.CheckpointEvery)
	}
	if sc.Retain < 0 {
		return fmt.Errorf("Retain must be >= 0, got %d", sc.Retain)
	}
	return nil
}

func (sc SupervisorConfig) storeOptions() recovery.Options {
	return recovery.Options{
		Retain:       sc.Retain,
		Sync:         sc.SyncEveryEvent,
		DisableFsync: sc.DisableFsync,
	}
}

// NewSupervisedEngine builds a durable engine over the strategy and
// disorder bound in cfg, persisting to sc.Dir: an Engine whose every
// offered event is logged durably before processing, whose matches carry
// monotone sequence numbers committed on emission, whose engine panics
// restart from the latest checkpoint with capped exponential backoff, and
// whose admission control filters duplicates and bound violators (the
// engine's own bound under an adaptive controller; see AdmitPolicy).
//
// Call Start before the first event. A process crash at any point loses
// nothing: reopening the same directory (NewSupervisedEngine + Start)
// restores the newest valid checkpoint, replays the logged suffix,
// suppresses matches already delivered before the crash, and returns the
// ones the crash interrupted. Events must carry caller-assigned unique Seq
// values — duplicate detection and crash-consistent identity are keyed on
// Seq, so they cannot be assigned across a restart. Advance is refused (the
// log records no heartbeats), and so is Checkpoint.
//
// The native strategy recovers from snapshots;
// every other configuration runs WAL-only. A directory left by a
// partitioned engine (Config.Partition of earlier versions) continues under
// the one engine when its log holds no match committed past its newest
// checkpoint; otherwise Start refuses it, because replay suppresses
// delivered matches by count and one engine emits in another order than the
// shards did.
//
// Observability: the supervisor and the engine directly beneath it publish
// into one series (the instrument sets are disjoint, so one series carries
// the full picture, and Metrics reads it), registered on Config.Observer as
// "supervised(<strategy>)".
// Every engine the supervisor builds — fresh, restored from a checkpoint
// after a crash, or rebuilt after a panic — is constructed with the same
// instruments, so Observer, Trace, Latency, and Provenance survive
// restarts.
func NewSupervisedEngine(q *Query, cfg Config, sc SupervisorConfig) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := validateQueryConfig(q, cfg); err != nil {
		return nil, err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	b := cfg.builder()
	series := b.series("supervised(" + string(cfg.Strategy) + ")")
	opts := runtime.SupervisorOptions{
		Env:         engine.Env{Series: series, Trace: b.trace, Latency: b.lat},
		New:         func() (engine.Engine, error) { return b.build(q.plan, cfg, series, nil) },
		K:           cfg.K,
		EngineBound: cfg.adaptiveActive(),
	}
	if cfg.restorable() {
		opts.Restore = func(r io.Reader, suppress uint64) (engine.Engine, error) {
			from := openCheckpoint(r)
			if from.partitioned && suppress > 0 {
				return nil, fmt.Errorf("the newest checkpoint was written by a partitioned engine and the log holds %d matches committed past it: one engine emits in another order than the shards did, so replay cannot tell which of its emissions were delivered", suppress)
			}
			return b.build(q.plan, cfg, series, from)
		}
	}
	sup, err := newSupervisor(sc, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{facade: durable(sup, b.lat)}, nil
}

// newSupervisor opens sc's (validated) durable store and wraps it in a
// supervisor running opts' factories under sc's policies.
func newSupervisor(sc SupervisorConfig, opts runtime.SupervisorOptions) (*runtime.Supervisor, error) {
	store, err := recovery.Open(sc.Dir, sc.storeOptions())
	if err != nil {
		return nil, err
	}
	opts.Policy = sc.Policy
	opts.DeadLetter = sc.DeadLetter
	opts.CheckpointEvery = sc.CheckpointEvery
	opts.MaxRestarts = sc.MaxRestarts
	sup, err := runtime.NewSupervisor(store, opts)
	if err != nil {
		store.Close()
		return nil, err
	}
	return sup, nil
}
