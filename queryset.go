package oostream

import (
	"fmt"
	"io"

	"oostream/internal/engine"
	"oostream/internal/kslack"
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
// registered query. Every registered query runs the out-of-order kernel at
// K=0 under the native (seal-then-emit) policy behind the shared reorder
// buffer, which carries all disorder tolerance. A QuerySet with one
// registered query computes the results of a single-query Engine, but not at
// its latency: the shared buffer holds every event for K, so its results
// wait K, as a StrategyKSlack engine's do.
type QuerySetConfig struct {
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

func (cfg QuerySetConfig) validate() error {
	if cfg.K < 0 {
		return fmt.Errorf("K must be >= 0, got %d", cfg.K)
	}
	if cfg.AdvanceEvery < 0 {
		return fmt.Errorf("AdvanceEvery must be >= 0, got %d", cfg.AdvanceEvery)
	}
	return cfg.Latency.validate()
}

// levee builds (from == nil, with staged registered) or restores a
// QuerySet's engine: the K-slack levee, publishing into series and owning the
// sampler's buffer stage, in front of the Set, which it also returns as the
// live registry, and fans its engines out to the levee's watermark. The Set
// publishes into series' carry and stamps per-query
// construction on the sampler; every per-query engine — the native kernel
// at K=0, since the levee reorders — is built or restored through the same
// builder under the "qs/<id>" identity with the hook and the provenance
// switch, and no sampler.
func (cfg QuerySetConfig) levee(b builder, series *obsv.Series, from *engine.Sections, staged []namedQuery) (*kslack.Engine, *queryset.Set, error) {
	ecfg := Config{Strategy: StrategyNative}
	qb := b
	qb.lat = nil
	var lv *kslack.Engine
	opts := queryset.Options{
		AdvanceEvery: cfg.AdvanceEvery,
		Watermark:    func() Time { return lv.Watermark() },
		Env:          engine.Env{Series: series.Carry(), Latency: b.lat},
		NewEngine: func(id string, p *plan.Plan) (engine.Engine, error) {
			return qb.build(p, ecfg, qb.series("qs/"+id), nil)
		},
		Compile: func(src string) (*plan.Plan, error) {
			// The source was schema-checked when first compiled; restore
			// recompiles the canonical text without re-checking.
			return plan.ParseAndCompile(src, nil)
		},
		RestoreEngine: func(id string, p *plan.Plan, s *engine.Sections) (engine.Engine, error) {
			return qb.build(p, ecfg, qb.series("qs/"+id), s)
		},
	}
	if b.obs != nil {
		// Per-query construct attribution lands in the same "qs/<id>"
		// series the query's counters publish into.
		opts.QuerySeries = func(id string) *obsv.Series { return b.obs.Series("qs/" + id) }
	}
	env := engine.Env{Series: series, Latency: b.lat, Provenance: b.prov}
	if from != nil {
		var set *queryset.Set
		var err error
		lv, err = kslack.Restore(from, cfg.K, env, func(s *engine.Sections) (engine.Engine, error) {
			var err error
			set, err = queryset.Restore(opts, s)
			return set, err
		})
		return lv, set, err
	}
	set, err := queryset.New(opts)
	if err != nil {
		return nil, nil, err
	}
	for _, nq := range staged {
		if err := set.Register(nq.id, nq.q.plan); err != nil {
			return nil, nil, err
		}
	}
	lv = kslack.NewEngine(cfg.K, set, env)
	return lv, set, nil
}

func (cfg QuerySetConfig) builder() builder {
	return newBuilder(cfg.Observer, cfg.Trace, cfg.Latency, cfg.Provenance)
}

// QuerySet evaluates many registered queries over one event stream,
// processing each event once: a K-slack levee admits and reorders the
// stream (the StrategyKSlack composition), and behind it an event-type
// index dispatches only to queries whose components can consume the event,
// with prefix gating that skips queries whose pattern cannot have started
// for the event's key group. Every emitted Match carries the owning query's
// id in Match.Query. It runs in memory (NewQuerySet, RestoreQuerySet) or
// durably (NewSupervisedQuerySet), with the method set and the refusals of
// Engine.
//
// Like Engine, a QuerySet is not safe for concurrent calls.
type QuerySet struct {
	facade
	// live is the registry behind the levee: nil before a durable set's
	// Start.
	live *queryset.Set
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

// RestoreQuerySet rebuilds a QuerySet from a Checkpoint: the levee's
// buffer, the full query registry (sources are recompiled), and every
// per-query engine state, instrumented by cfg exactly as NewQuerySet would.
// A checkpoint written at another K than cfg.K is refused.
func RestoreQuerySet(cfg QuerySetConfig, r io.Reader) (*QuerySet, error) {
	if r == nil {
		return nil, fmt.Errorf("RestoreQuerySet: nil checkpoint reader")
	}
	return newQuerySet(cfg, r)
}

// newQuerySet is NewQuerySet (r == nil) and RestoreQuerySet.
func newQuerySet(cfg QuerySetConfig, r io.Reader) (*QuerySet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	from, err := engine.Open(r)
	if err != nil {
		return nil, err
	}
	b := cfg.builder()
	lv, set, err := cfg.levee(b, b.series("queryset"), from, nil)
	if err == nil {
		err = from.Done()
	}
	if err != nil {
		return nil, err
	}
	return &QuerySet{facade: inMemory(lv, b.lat), live: set}, nil
}

// NewSupervisedQuerySet builds a durable QuerySet persisting to sc.Dir:
// events are logged before processing, matches are committed to the
// exactly-once horizon on emission, and checkpoints hold the levee's buffer
// and per-query state namespaces, so a live Register or Unregister survives
// a kill and recovery (each forces a checkpoint; the log replays events
// only). Register the initial queries before Start on a fresh directory; on
// a resumed one the checkpointed registry wins and those registrations are
// ignored (reconcile via Queries after Start).
//
// As for NewSupervisedEngine, events must carry caller-assigned unique Seq
// values, and Advance is refused. One caveat mirrors the supervisor's
// mutations: the final flush a live Unregister returns sits outside the
// exactly-once horizon — a crash racing the mutation re-runs it, making that
// output at-least-once.
func NewSupervisedQuerySet(cfg QuerySetConfig, sc SupervisorConfig) (*QuerySet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	b := cfg.builder()
	// The levee beneath the supervisor shares its series (the instrument
	// sets are disjoint), as a single engine does under NewSupervisedEngine.
	series := b.series("supervised(queryset)")
	qs := &QuerySet{}
	sopts := runtime.SupervisorOptions{
		Env: engine.Env{Series: series, Trace: b.trace, Latency: b.lat},
		New: func() (engine.Engine, error) { return qs.rebuilt(cfg.levee(b, series, nil, qs.staged)) },
		Restore: func(s *engine.Sections) (engine.Engine, error) {
			return qs.rebuilt(cfg.levee(b, series, s, nil))
		},
	}
	sup, err := newSupervisor(sc, sopts)
	if err != nil {
		return nil, err
	}
	qs.facade = durable(sup, b.lat)
	return qs, nil
}

// rebuilt hands the supervisor the engine it just had built and keeps that
// engine's registry as the live one.
func (qs *QuerySet) rebuilt(lv *kslack.Engine, set *queryset.Set, err error) (engine.Engine, error) {
	if err != nil {
		return nil, err
	}
	qs.live = set
	return lv, nil
}

// mutate applies a registry change: directly in memory; durably through
// the supervisor, which seals it with a forced checkpoint.
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
	if qs.live == nil {
		for _, nq := range qs.staged {
			if nq.id == id {
				return fmt.Errorf("queryset: query id %q already registered", id)
			}
		}
		qs.staged = append(qs.staged, namedQuery{id: id, q: q})
		return nil
	}
	_, err := qs.mutate(func() ([]Match, error) { return nil, qs.live.Register(id, q.plan) })
	return err
}

// Unregister removes a query, finalizes it against the events released so
// far, and returns its final matches (tagged with the id). Events still
// held in the shared reorder buffer are not seen by the departing query;
// call Advance first to drain up to a known horizon when that matters. On a
// durable set it is a live mutation like Register, and the returned matches
// sit outside the exactly-once horizon (see NewSupervisedQuerySet).
func (qs *QuerySet) Unregister(id string) ([]Match, error) {
	if qs.live == nil {
		for i, nq := range qs.staged {
			if nq.id == id {
				qs.staged = append(qs.staged[:i], qs.staged[i+1:]...)
				return nil, nil
			}
		}
		return nil, fmt.Errorf("queryset: query id %q is not registered", id)
	}
	return qs.mutate(func() ([]Match, error) { return qs.live.Unregister(id) })
}

// Queries returns the registered query ids in registration order.
func (qs *QuerySet) Queries() []string {
	if qs.live != nil {
		return qs.live.Queries()
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
	if qs.live != nil {
		return qs.live.QueryMetrics(id)
	}
	return Metrics{}, false
}

// Stats returns per-query dispatch/skip accounting in registration order.
func (qs *QuerySet) Stats() []QueryStats {
	if qs.live != nil {
		return qs.live.Stats()
	}
	return nil
}
