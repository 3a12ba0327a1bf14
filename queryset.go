package oostream

import (
	"fmt"
	"io"

	"oostream/internal/engine"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/queryset"
	"oostream/internal/runtime"
)

// QueryStats is one registered query's dispatch accounting inside a
// QuerySet: how many released events the type index offered to its engine
// and how many the prefix gate skipped.
type QueryStats = queryset.QueryStats

// QuerySetConfig configures a QuerySet — the multi-query engine that
// shares admission, reordering, and purge scheduling across every
// registered query. A single-query Engine (NewEngine) is the degenerate
// case: a QuerySet with one registered query computes the same results,
// paying a small dispatch overhead for the ability to add more.
type QuerySetConfig struct {
	// Strategy selects the per-query inner engine; default StrategyNative.
	// Inner engines run at K=0 — the shared reorder buffer carries all
	// disorder tolerance — so StrategyInOrder is exact under the bound
	// inside a QuerySet (equivalent to a single-query StrategyKSlack
	// engine), unlike the standalone in-order engine.
	Strategy Strategy
	// K is the shared disorder bound (slack) in logical milliseconds,
	// paid once at the shared buffer instead of once per query.
	K Time
	// AdvanceEvery is the watermark fan-out cadence in released events
	// (0 = default 256): every engine is advanced to the shared watermark
	// at this cadence, bounding negation-sealing latency and purge
	// staleness. It never affects final output.
	AdvanceEvery int
	// Provenance enables lineage records on every registered query's
	// matches, exactly as Config.Provenance does for a single engine.
	Provenance bool
	// Observer, when non-nil, publishes one "queryset" series with the
	// shared-admission counters plus one "qs/<id>" series per registered
	// query (the existing per-engine identity scheme).
	Observer *Observer
	// Trace, when non-nil, receives per-query lifecycle trace events,
	// tagged with the "qs/<id>" engine identity.
	Trace TraceHook
	// Latency configures sampled wall-clock latency attribution, exactly
	// as Config.Latency does for a single engine. The Set stamps
	// shared-buffer residency and construction on sampled spans, and —
	// with Observer set — mirrors each query's construct segment into its
	// "qs/<id>" series, so per-query attribution rides the same series the
	// query's counters already publish to.
	Latency Latency
}

func (cfg QuerySetConfig) withDefaults() QuerySetConfig {
	if cfg.Strategy == "" {
		cfg.Strategy = StrategyNative
	}
	return cfg
}

func (cfg QuerySetConfig) validate() error {
	switch cfg.Strategy {
	case StrategyNative, StrategyInOrder, StrategyKSlack, StrategySpeculate:
	case StrategyHybrid:
		// Inner engines see the shared buffer's sorted output, so the
		// meta-engine would never observe disorder and never switch.
		return fmt.Errorf("strategy %q is not meaningful inside a QuerySet: inner engines run behind the shared reorder buffer", StrategyHybrid)
	default:
		return fmt.Errorf("unknown strategy %q", cfg.Strategy)
	}
	if cfg.K < 0 {
		return fmt.Errorf("K must be >= 0, got %d", cfg.K)
	}
	if cfg.AdvanceEvery < 0 {
		return fmt.Errorf("AdvanceEvery must be >= 0, got %d", cfg.AdvanceEvery)
	}
	return cfg.Latency.validate()
}

// setOptions derives the Set's options from cfg and its builder: the Set
// itself publishes into the series named top and owns the sampler (it
// stamps shared-buffer residency and per-query construction); every
// per-query engine — the configured strategy at K=0, since the shared
// buffer reorders — is built or restored through the same builder under
// the "qs/<id>" identity with the hook and the provenance switch, and no
// sampler.
func (cfg QuerySetConfig) setOptions(b builder, top string) queryset.Options {
	ecfg := Config{Strategy: cfg.Strategy}
	qb := b
	qb.lat = nil
	opts := queryset.Options{
		K:            cfg.K,
		AdvanceEvery: cfg.AdvanceEvery,
		Env:          engine.Env{Series: b.series(top), Latency: b.lat},
		NewEngine: func(id string, p *plan.Plan) (engine.Engine, error) {
			return qb.build(p, ecfg, "qs/"+id, nil)
		},
		Compile: func(src string) (*plan.Plan, error) {
			// The source was schema-checked when first compiled; restore
			// recompiles the canonical text without re-checking.
			return plan.ParseAndCompile(src, nil)
		},
	}
	if ecfg.restorable() {
		opts.RestoreEngine = func(id string, p *plan.Plan, r io.Reader) (engine.Engine, error) {
			return qb.build(p, ecfg, "qs/"+id, openCheckpoint(r))
		}
	}
	if b.obs != nil {
		// Per-query construct attribution lands in the same "qs/<id>"
		// series the query's counters publish into.
		opts.QuerySeries = func(id string) *obsv.Series { return b.obs.Series("qs/" + id) }
	}
	return opts
}

func (cfg QuerySetConfig) builder() builder {
	return newBuilder(cfg.Observer, cfg.Trace, cfg.Latency, cfg.Provenance)
}

// QuerySet evaluates many registered queries over one event stream,
// processing each event once: a shared K-slack admission/reorder pass, an
// event-type index dispatching only to queries whose components can
// consume the event, and prefix gating that skips queries whose pattern
// cannot have started for the event's key group. Every emitted Match
// carries the owning query's id in Match.Query.
//
// Like Engine, a QuerySet is not safe for concurrent calls.
type QuerySet struct {
	set     *queryset.Set
	nextSeq Seq
	sealed  bool
	// lat is the wall-clock span sampler (nil unless Latency is set).
	lat *obsv.LatencySampler
}

// NewQuerySet builds an empty QuerySet; add queries with Register.
func NewQuerySet(cfg QuerySetConfig) (*QuerySet, error) { return newQuerySet(cfg, nil) }

// MustNewQuerySet is NewQuerySet for known-good configuration.
func MustNewQuerySet(cfg QuerySetConfig) *QuerySet {
	qs, err := NewQuerySet(cfg)
	if err != nil {
		panic(err)
	}
	return qs
}

// RestoreQuerySet rebuilds a QuerySet from a Checkpoint (format v2): the
// shared buffer, the full query registry (sources are recompiled), and
// every per-query engine state, instrumented by cfg exactly as NewQuerySet
// would. Only StrategyNative supports it.
func RestoreQuerySet(cfg QuerySetConfig, r io.Reader) (*QuerySet, error) {
	if r == nil {
		return nil, fmt.Errorf("RestoreQuerySet: nil checkpoint reader")
	}
	return newQuerySet(cfg, r)
}

// newQuerySet is NewQuerySet (r == nil) and RestoreQuerySet.
func newQuerySet(cfg QuerySetConfig, r io.Reader) (*QuerySet, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if r != nil && cfg.Strategy != StrategyNative {
		return nil, fmt.Errorf("strategy %q does not support checkpointing", cfg.Strategy)
	}
	b := cfg.builder()
	opts := cfg.setOptions(b, "queryset")
	var set *queryset.Set
	var err error
	if r != nil {
		set, err = queryset.Restore(opts, r)
	} else {
		set, err = queryset.New(opts)
	}
	if err != nil {
		return nil, err
	}
	return &QuerySet{set: set, lat: b.lat}, nil
}

// Register adds a compiled query under id. The query observes events the
// shared buffer releases after registration; it returns an error on a
// duplicate or empty id, or after Flush.
func (qs *QuerySet) Register(id string, q *Query) error {
	return qs.set.Register(id, q.plan)
}

// Unregister removes a query, finalizes it against the events released so
// far, and returns its final matches (tagged with the id). Events still
// held in the shared reorder buffer are not seen by the departing query;
// call Advance first to drain up to a known horizon when that matters.
func (qs *QuerySet) Unregister(id string) ([]Match, error) {
	return qs.set.Unregister(id)
}

// Queries returns the registered query ids in registration order.
func (qs *QuerySet) Queries() []string { return qs.set.Queries() }

// Process ingests one event, auto-assigning Seq exactly like
// Engine.Process, and returns the matches it releases across all
// registered queries, each tagged with its query id. Panics after Flush.
func (qs *QuerySet) Process(ev Event) []Match {
	if qs.sealed {
		panic("oostream: Process called after Flush; the stream is sealed")
	}
	qs.assignSeq(&ev)
	qs.lat.Begin(ev.Seq)
	ms := qs.set.Process(ev)
	qs.lat.Finish(ev.Seq)
	return ms
}

// ProcessBatch ingests a slice of events through the batch path. A nil or
// empty batch is a documented no-op returning nil. Output is identical to
// per-event Process calls. Seq auto-assignment matches Process and is
// written into the caller's slice in place.
func (qs *QuerySet) ProcessBatch(events []Event) []Match {
	if qs.sealed {
		panic("oostream: ProcessBatch called after Flush; the stream is sealed")
	}
	for i := range events {
		qs.assignSeq(&events[i])
		qs.lat.Begin(events[i].Seq)
	}
	ms := qs.set.ProcessBatch(events)
	for i := range events {
		qs.lat.Finish(events[i].Seq)
	}
	return ms
}

// ProcessAll ingests a finite slice and returns all matches, including
// the end-of-stream flush.
func (qs *QuerySet) ProcessAll(events []Event) []Match {
	var out []Match
	for _, ev := range events {
		out = append(out, qs.Process(ev)...)
	}
	return append(out, qs.Flush()...)
}

func (qs *QuerySet) assignSeq(ev *Event) {
	if ev.Seq == 0 {
		qs.nextSeq++
		ev.Seq = qs.nextSeq
	} else if ev.Seq > qs.nextSeq {
		qs.nextSeq = ev.Seq
	}
}

// Advance sends a heartbeat: stream time has reached ts. The shared
// buffer releases everything at or below ts − K and every registered
// engine advances to the new watermark, sealing pending negation output
// and purging state through silent periods.
func (qs *QuerySet) Advance(ts Time) []Match {
	if qs.sealed {
		panic("oostream: Advance called after Flush; the stream is sealed")
	}
	return qs.set.Advance(ts)
}

// Flush seals the stream: the shared buffer drains and every query is
// finalized in registration order. Process panics afterwards; a second
// Flush is a no-op returning nil.
func (qs *QuerySet) Flush() []Match {
	if qs.sealed {
		return nil
	}
	qs.sealed = true
	return qs.set.Flush()
}

// Metrics returns the shared-admission counters: events in, late drops at
// the shared buffer, irrelevant types, and the aggregate state gauge.
func (qs *QuerySet) Metrics() Metrics { return qs.set.Metrics() }

// QueryMetrics returns one registered query's inner-engine counters.
func (qs *QuerySet) QueryMetrics(id string) (Metrics, bool) { return qs.set.QueryMetrics(id) }

// Stats returns per-query dispatch/skip accounting in registration order.
func (qs *QuerySet) Stats() []QueryStats { return qs.set.Stats() }

// StateSize returns buffered events plus the state of every engine.
func (qs *QuerySet) StateSize() int { return qs.set.StateSize() }

// LatencyReport returns the sampled wall-clock latency attribution digest
// (see Engine.LatencyReport), or nil when Latency is disabled. Per-query
// construct segments additionally land in each query's "qs/<id>" series
// when an Observer is configured.
func (qs *QuerySet) LatencyReport() *LatencyReport { return qs.lat.Report() }

// Checkpoint serializes the QuerySet in checkpoint format v2: the shared
// reorder buffer plus one namespaced state blob per registered query, so
// a restore rebuilds the full registry (see RestoreQuerySet). Every inner
// engine must support checkpointing (StrategyNative).
func (qs *QuerySet) Checkpoint(w io.Writer) error { return qs.set.Checkpoint(w) }

// Raw exposes the engine behind the facade for harnesses that compose
// engines directly (the Set implements the same contract as any engine;
// matches are tagged with their query id).
func (qs *QuerySet) Raw() RawEngine { return qs.set }

// SupervisedQuerySet is a QuerySet wrapped in the fault-tolerant runtime:
// events are WAL-logged before processing, matches are committed to the
// exactly-once horizon on emission, and checkpoints use format v2 with
// per-query state namespaces — so live Register/Unregister survives a
// kill/recover (each mutation forces a checkpoint; the WAL replays events
// only).
//
// Like SupervisedEngine, events must carry caller-assigned unique Seq
// values. Live mutation requires the native strategy (per-query snapshots);
// other strategies run WAL-only with a fixed pre-Start registry.
//
// One caveat mirrors Supervisor.Mutate: the final flush returned by a
// live Unregister sits outside the exactly-once horizon — a crash racing
// the mutation re-runs it, making that output at-least-once.
type SupervisedQuerySet struct {
	sup     *runtime.Supervisor
	initial []namedQuery
	started bool
	// lat is the wall-clock span sampler (nil unless Latency is set).
	lat *obsv.LatencySampler
}

type namedQuery struct {
	id string
	q  *Query
}

// NewSupervisedQuerySet builds a supervised QuerySet persisting to
// sc.Dir. Register initial queries before Start on a fresh directory; on
// a resumed directory the checkpointed registry wins and pre-Start
// registrations are ignored (reconcile via Queries after Start).
func NewSupervisedQuerySet(cfg QuerySetConfig, sc SupervisorConfig) (*SupervisedQuerySet, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	b := cfg.builder()
	// The Set beneath the supervisor shares its series (the instrument sets
	// are disjoint), as a single engine does under NewSupervisedEngine.
	top := "supervised(queryset)"
	opts := cfg.setOptions(b, top)
	s := &SupervisedQuerySet{lat: b.lat}
	sopts := runtime.SupervisorOptions{
		Env: engine.Env{Series: b.series(top), Trace: b.trace, Latency: b.lat},
		New: func() (engine.Engine, error) {
			set, err := queryset.New(opts)
			if err != nil {
				return nil, err
			}
			for _, nq := range s.initial {
				if err := set.Register(nq.id, nq.q.plan); err != nil {
					return nil, err
				}
			}
			return set, nil
		},
		K: cfg.K,
	}
	if opts.RestoreEngine != nil {
		sopts.Restore = func(r io.Reader, _ uint64) (engine.Engine, error) { return queryset.Restore(opts, r) }
	}
	sup, err := newSupervisor(sc, sopts)
	if err != nil {
		return nil, err
	}
	s.sup = sup
	return s, nil
}

// Start recovers durable state (restoring the checkpointed query registry
// when one exists) and readies the set; it returns the matches a previous
// crash interrupted.
func (s *SupervisedQuerySet) Start() ([]Match, error) {
	out, err := s.sup.Start()
	if err != nil {
		return nil, err
	}
	s.started = true
	return out, nil
}

// Register adds a query. Before Start it stages the query for the fresh
// registry; after Start it is a durable live mutation — applied to the
// running set and sealed with a forced v2 checkpoint, so it survives a
// kill/recover (native strategy only).
func (s *SupervisedQuerySet) Register(id string, q *Query) error {
	if !s.started {
		for _, nq := range s.initial {
			if nq.id == id {
				return fmt.Errorf("queryset: query id %q already registered", id)
			}
		}
		s.initial = append(s.initial, namedQuery{id: id, q: q})
		return nil
	}
	_, err := s.sup.Mutate(func(en engine.Engine) ([]plan.Match, error) {
		return nil, en.(*queryset.Set).Register(id, q.plan)
	})
	return err
}

// Unregister removes a query. After Start it is a durable live mutation;
// the returned final matches sit outside the exactly-once horizon (see
// the type comment).
func (s *SupervisedQuerySet) Unregister(id string) ([]Match, error) {
	if !s.started {
		for i, nq := range s.initial {
			if nq.id == id {
				s.initial = append(s.initial[:i], s.initial[i+1:]...)
				return nil, nil
			}
		}
		return nil, fmt.Errorf("queryset: query id %q is not registered", id)
	}
	return s.sup.Mutate(func(en engine.Engine) ([]plan.Match, error) {
		return en.(*queryset.Set).Unregister(id)
	})
}

// Queries returns the live registry in registration order (after Start).
func (s *SupervisedQuerySet) Queries() []string {
	if set, ok := s.sup.Engine().(*queryset.Set); ok {
		return set.Queries()
	}
	ids := make([]string, len(s.initial))
	for i, nq := range s.initial {
		ids[i] = nq.id
	}
	return ids
}

// Process offers one event; it must carry a unique non-zero Seq. Returned
// matches are committed as delivered before the call returns.
func (s *SupervisedQuerySet) Process(ev Event) ([]Match, error) {
	if ev.Seq == 0 {
		return nil, fmt.Errorf("supervised query set requires caller-assigned event Seq values")
	}
	return s.sup.Process(ev)
}

// ProcessBatch offers a slice of events with per-event durability
// semantics (see SupervisedEngine.ProcessBatch). A nil or empty batch is
// a no-op.
func (s *SupervisedQuerySet) ProcessBatch(events []Event) ([]Match, error) {
	for _, ev := range events {
		if ev.Seq == 0 {
			return nil, fmt.Errorf("supervised query set requires caller-assigned event Seq values")
		}
	}
	return s.sup.ProcessBatch(events)
}

// Flush seals the stream durably.
func (s *SupervisedQuerySet) Flush() ([]Match, error) { return s.sup.Flush() }

// Metrics returns the shared-admission counters merged with the
// fault-tolerance counters.
func (s *SupervisedQuerySet) Metrics() Metrics { return s.sup.Metrics() }

// QueryMetrics returns one registered query's inner-engine counters.
func (s *SupervisedQuerySet) QueryMetrics(id string) (Metrics, bool) {
	if set, ok := s.sup.Engine().(*queryset.Set); ok {
		return set.QueryMetrics(id)
	}
	return Metrics{}, false
}

// MatchSeq returns the cumulative committed match-emission count.
func (s *SupervisedQuerySet) MatchSeq() uint64 { return s.sup.MatchSeq() }

// LatencyReport returns the sampled wall-clock latency attribution digest
// (see Engine.LatencyReport), or nil when Latency is disabled.
func (s *SupervisedQuerySet) LatencyReport() *LatencyReport { return s.lat.Report() }

// Err returns the sticky failure, if any.
func (s *SupervisedQuerySet) Err() error { return s.sup.Err() }

// Kill simulates a process crash for testing; reopen the directory with a
// fresh SupervisedQuerySet to recover.
func (s *SupervisedQuerySet) Kill() { s.sup.Kill() }

// Close cleanly seals the durable store.
func (s *SupervisedQuerySet) Close() error { return s.sup.Close() }
