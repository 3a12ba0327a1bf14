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
// registered query. A QuerySet with one registered query computes the
// results of a single-query Engine, but not at its latency: the shared
// buffer holds every event for K, so a native query's results wait K too.
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
// itself publishes into series and owns the sampler (it
// stamps shared-buffer residency and per-query construction); every
// per-query engine — the configured strategy at K=0, since the shared
// buffer reorders — is built or restored through the same builder under
// the "qs/<id>" identity with the hook and the provenance switch, and no
// sampler.
func (cfg QuerySetConfig) setOptions(b builder, series *obsv.Series) queryset.Options {
	ecfg := Config{Strategy: cfg.Strategy}
	qb := b
	qb.lat = nil
	opts := queryset.Options{
		K:            cfg.K,
		AdvanceEvery: cfg.AdvanceEvery,
		Env:          engine.Env{Series: series, Latency: b.lat},
		NewEngine: func(id string, p *plan.Plan) (engine.Engine, error) {
			return qb.build(p, ecfg, qb.series("qs/"+id), nil)
		},
		Compile: func(src string) (*plan.Plan, error) {
			// The source was schema-checked when first compiled; restore
			// recompiles the canonical text without re-checking.
			return plan.ParseAndCompile(src, nil)
		},
	}
	if ecfg.restorable() {
		opts.RestoreEngine = func(id string, p *plan.Plan, r io.Reader) (engine.Engine, error) {
			return qb.build(p, ecfg, qb.series("qs/"+id), openCheckpoint(r))
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
// carries the owning query's id in Match.Query. It runs in memory
// (NewQuerySet, RestoreQuerySet) or durably (NewSupervisedQuerySet), with
// the method set and the refusals of Engine.
//
// Like Engine, a QuerySet is not safe for concurrent calls.
type QuerySet struct {
	facade
	// staged is the fresh registry of a durable set, Registered before
	// Start (a resumed directory's checkpointed registry wins).
	staged []namedQuery
}

type namedQuery struct {
	id string
	q  *Query
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
	opts := cfg.setOptions(b, b.series("queryset"))
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
	return &QuerySet{facade: inMemory(set, b.lat)}, nil
}

// NewSupervisedQuerySet builds a durable QuerySet persisting to sc.Dir:
// events are logged before processing, matches are committed to the
// exactly-once horizon on emission, and checkpoints use format v2 with
// per-query state namespaces, so a live Register or Unregister survives a
// kill and recovery (each forces a checkpoint; the log replays events
// only). Register the initial queries before Start on a fresh directory; on
// a resumed one the checkpointed registry wins and those registrations are
// ignored (reconcile via Queries after Start).
//
// As for NewSupervisedEngine, events must carry caller-assigned unique Seq
// values, and Advance is refused. Live mutation requires the native
// strategy (per-query snapshots); other strategies run WAL-only with the
// registry staged before Start. One caveat mirrors the supervisor's
// mutations: the final flush a live Unregister returns sits outside the
// exactly-once horizon — a crash racing the mutation re-runs it, making that
// output at-least-once.
func NewSupervisedQuerySet(cfg QuerySetConfig, sc SupervisorConfig) (*QuerySet, error) {
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
	series := b.series("supervised(queryset)")
	opts := cfg.setOptions(b, series)
	qs := &QuerySet{}
	sopts := runtime.SupervisorOptions{
		Env: engine.Env{Series: series, Trace: b.trace, Latency: b.lat},
		New: func() (engine.Engine, error) {
			set, err := queryset.New(opts)
			if err != nil {
				return nil, err
			}
			for _, nq := range qs.staged {
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
	qs.facade = durable(sup, b.lat)
	return qs, nil
}

// set is the live registry: the facade's engine in memory; when durable,
// the supervisor's current one (replaced on every restart), nil before
// Start.
func (qs *QuerySet) set() *queryset.Set {
	en := qs.inner
	if qs.sup != nil {
		en = qs.sup.Engine()
	}
	set, _ := en.(*queryset.Set)
	return set
}

// mutate applies a registry change: directly in memory; durably through
// the supervisor, which seals it with a forced checkpoint (native strategy
// only).
func (qs *QuerySet) mutate(fn func() ([]Match, error)) ([]Match, error) {
	if qs.sup == nil {
		return fn()
	}
	return qs.sup.Mutate(fn)
}

// Register adds a compiled query under id. The query observes events the
// shared buffer releases after registration; it returns an error on a
// duplicate or empty id, or after Flush. On a durable set, Register before
// Start stages the query for the fresh registry; after Start it is a
// durable live mutation.
func (qs *QuerySet) Register(id string, q *Query) error {
	set := qs.set()
	if set == nil {
		for _, nq := range qs.staged {
			if nq.id == id {
				return fmt.Errorf("queryset: query id %q already registered", id)
			}
		}
		qs.staged = append(qs.staged, namedQuery{id: id, q: q})
		return nil
	}
	_, err := qs.mutate(func() ([]Match, error) { return nil, set.Register(id, q.plan) })
	return err
}

// Unregister removes a query, finalizes it against the events released so
// far, and returns its final matches (tagged with the id). Events still
// held in the shared reorder buffer are not seen by the departing query;
// call Advance first to drain up to a known horizon when that matters. On a
// durable set it is a live mutation like Register, and the returned matches
// sit outside the exactly-once horizon (see NewSupervisedQuerySet).
func (qs *QuerySet) Unregister(id string) ([]Match, error) {
	set := qs.set()
	if set == nil {
		for i, nq := range qs.staged {
			if nq.id == id {
				qs.staged = append(qs.staged[:i], qs.staged[i+1:]...)
				return nil, nil
			}
		}
		return nil, fmt.Errorf("queryset: query id %q is not registered", id)
	}
	return qs.mutate(func() ([]Match, error) { return set.Unregister(id) })
}

// Queries returns the registered query ids in registration order.
func (qs *QuerySet) Queries() []string {
	if set := qs.set(); set != nil {
		return set.Queries()
	}
	ids := make([]string, len(qs.staged))
	for i, nq := range qs.staged {
		ids[i] = nq.id
	}
	return ids
}

// QueryMetrics returns one registered query's inner-engine counters (the
// shared-admission counters are Metrics).
func (qs *QuerySet) QueryMetrics(id string) (Metrics, bool) {
	if set := qs.set(); set != nil {
		return set.QueryMetrics(id)
	}
	return Metrics{}, false
}

// Stats returns per-query dispatch/skip accounting in registration order.
func (qs *QuerySet) Stats() []QueryStats {
	if set := qs.set(); set != nil {
		return set.Stats()
	}
	return nil
}
