package oostream

import (
	"fmt"

	"oostream/internal/engine"
	"oostream/internal/recovery"
	"oostream/internal/runtime"
)

// SupervisorConfig configures the fault-tolerance runtime wrapped around
// an engine: where durable state lives and how often to checkpoint.
type SupervisorConfig struct {
	// Dir is the durable state directory (checkpoints + write-ahead log).
	// Required. Reopening the same directory resumes the stream.
	Dir string
	// CheckpointEvery takes a durable engine snapshot every this many
	// offered events, whatever the strategy. 0 disables periodic checkpoints:
	// the full log replays on restart.
	CheckpointEvery int
	// Retain keeps the newest N checkpoints (older ones and their log
	// prefixes are pruned). 0 = default 3.
	Retain int
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
// monotone sequence numbers committed on emission, and which processes
// each Seq once. What is late is the engine's to judge, by its own clock
// and bound, exactly as in memory.
//
// Call Start before the first event. A process crash at any point loses
// nothing: reopening the same directory (NewSupervisedEngine + Start)
// restores the newest valid checkpoint, replays the logged suffix,
// suppresses matches already delivered before the crash, and returns the
// ones the crash interrupted. A panic, the engine's or Config.Trace's, is
// such a crash: no call lets it escape; Err names the event and the panic,
// every later call is refused, and reopening resumes. Events must carry caller-assigned unique Seq
// values — duplicate detection and crash-consistent identity are keyed on
// Seq, so they cannot be assigned across a restart. Advance is refused (the
// log records no heartbeats), and so is Checkpoint.
//
// Every strategy recovers from its snapshots.
//
// Observability: the supervisor and the engine directly beneath it publish
// into one series (the instrument sets are disjoint, so one series carries
// the full picture, and Metrics reads it), registered on Config.Observer as
// "supervised(<strategy>)".
// Every engine the supervisor builds — fresh, or restored from a checkpoint
// after a crash — is constructed with the same instruments, so Observer,
// Trace, Latency, and Provenance survive a reopening.
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
		Env:     engine.Env{Series: series, Trace: b.trace, Latency: b.lat},
		New:     func() (engine.Engine, error) { return b.build(q.plan, cfg, series, nil) },
		Restore: func(from *engine.Sections) (engine.Engine, error) { return b.build(q.plan, cfg, series, from) },
	}
	sup, err := newSupervisor(sc, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{facade: durable(sup, b.lat)}, nil
}

// newSupervisor opens sc's (validated) durable store and wraps it in a
// supervisor running opts' factories under sc's checkpoint setting.
func newSupervisor(sc SupervisorConfig, opts runtime.SupervisorOptions) (*runtime.Supervisor, error) {
	store, err := recovery.Open(sc.Dir, sc.storeOptions())
	if err != nil {
		return nil, err
	}
	opts.CheckpointEvery = sc.CheckpointEvery
	sup, err := runtime.NewSupervisor(store, opts)
	if err != nil {
		store.Close()
		return nil, err
	}
	return sup, nil
}
