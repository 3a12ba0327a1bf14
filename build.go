package oostream

import (
	"fmt"
	"io"

	"oostream/internal/adaptive"
	"oostream/internal/agg"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/hybrid"
	"oostream/internal/kslack"
	"oostream/internal/obsv"
	"oostream/internal/plan"
)

// builder is the one construction path behind NewEngine, RestoreEngine,
// NewSupervisedEngine, and the QuerySet factories: it holds the instruments
// one facade object was configured with and derives every layer's
// engine.Env from them, so which layer receives which instrument is decided
// here and nowhere else (DESIGN.md, "Engine contract and Env"). Fresh and
// restored engines take the same path — a nil reader builds, a non-nil one
// restores — so they cannot be instrumented differently.
type builder struct {
	obs   *Observer
	trace TraceHook
	lat   *obsv.LatencySampler
	prov  bool
}

// newBuilder derives the instrument set of one facade object from its
// configuration (Config and QuerySetConfig carry the same four fields).
func newBuilder(obs *Observer, trace TraceHook, l Latency, prov bool) builder {
	b := builder{obs: obs, trace: trace, prov: prov}
	b.lat = b.newLatencySampler(l)
	return b
}

func (c Config) builder() builder {
	return newBuilder(c.Observer, c.Trace, c.Latency, c.Provenance)
}

// series resolves a registry series, or a private one without an Observer
// (the layer then traces under its own name). Layers that must read as one —
// a supervisor and the engine beneath it — are handed the same series.
func (b builder) series(name string) *obsv.Series {
	if b.obs == nil {
		return obsv.NewSeries("")
	}
	return b.obs.Series(name)
}

// newLatencySampler builds the span sampler, or nil when disabled. With an
// Observer it publishes into the registry's "latency" series, so the
// wall/stage histograms, span counters, and SLO windows ride the same
// /metrics and /varz surfaces as every other series; otherwise it records
// into a private series read via LatencyReport.
func (b builder) newLatencySampler(l Latency) *obsv.LatencySampler {
	if l.SampleEvery <= 0 {
		return nil
	}
	slo := obsv.NewSLOTracker(obsv.SLOConfig{Objective: l.SLO.Objective, Target: l.SLO.Target})
	ls := obsv.NewLatencySampler(l.SampleEvery, b.series("latency"), slo)
	if b.obs != nil && slo != nil {
		b.obs.RegisterPrometheus(func(w io.Writer) error {
			return slo.WritePrometheus(w, "latency")
		})
	}
	return ls
}

// build builds (from == nil) or restores the engine cfg describes for p
// from the sections engine.Open read: one strategy engine with the
// aggregation wrapper p calls for, publishing into series. cfg must already
// have defaults applied and be validated, against p too
// (validateQueryConfig). The layer that admits events from the stream and
// emits the query's visible output owns the series, the hook, and the
// lineage; the layer that does the construction work owns the sampler's
// construct boundary.
func (b builder) build(p *plan.Plan, cfg Config, series *obsv.Series, from *engine.Sections) (engine.Engine, error) {
	outer := engine.Env{Series: series, Trace: b.trace, Provenance: b.prov}
	strat := outer
	strat.Latency = b.lat
	if p.Agg != nil {
		// The aggregation operator consumes the strategy's matches: its own
		// series and hook reflect the visible output, and it builds lineage
		// itself (the strategy's records would never surface). The strategy
		// beneath publishes into a series the operator's carries and keeps
		// the construction stage boundary. The operator reads each call's
		// matches before its next call and keeps none, so a bare kernel
		// lends them from the same blocks; the levee, whose Advance and
		// Flush join several kernel calls, and the hybrid switch keep the
		// kernel's output owned.
		strat = engine.Env{Series: series.Carry(), Latency: b.lat,
			Borrowed: cfg.Strategy == StrategyNative || cfg.Strategy == StrategySpeculate}
	}
	if from != nil {
		if p.Agg != nil {
			// The operator's record comes first, its lateness bound in it; the
			// strategy restores from the sections after it.
			return agg.Restore(p, outer, from, func(*engine.Sections) (engine.Engine, error) {
				return b.strategy(p, cfg, strat, from)
			})
		}
		return b.strategy(p, cfg, strat, from)
	}
	inner, err := b.strategy(p, cfg, strat, nil)
	if err != nil {
		return nil, err
	}
	if p.Agg != nil {
		// The speculative strategy previews windows eagerly and revises them
		// as retract+insert pairs; every other strategy seals windows on
		// watermark advance.
		inner = agg.NewWithEnv(p, inner, cfg.Strategy == StrategySpeculate, aggLateness(p, cfg), outer)
	}
	return inner, nil
}

// strategy builds (from == nil) or restores the bare strategy engine,
// instrumented by env. A restored kernel's options and controller come from
// the checkpoint; its emission policy must be the strategy's.
func (b builder) strategy(p *plan.Plan, cfg Config, env engine.Env, from *engine.Sections) (engine.Engine, error) {
	ctrl, err := cfg.adaptiveController()
	if err != nil {
		return nil, err
	}
	// Every strategy runs the one out-of-order kernel; they differ in its
	// emission policy and in what stands in front of it.
	kernel := core.Options{
		K:                 cfg.K,
		DisableTriggerOpt: cfg.DisableTriggerOpt,
		PurgeEvery:        cfg.PurgeEvery,
		Env:               env,
	}
	switch cfg.Strategy {
	case StrategyNative, StrategySpeculate:
		if cfg.Strategy == StrategySpeculate {
			kernel.Emit = core.EmitThenRetract
		}
		kernel.Adaptive = ctrl
		if from != nil {
			en, err := core.Restore(p, env, from)
			if err != nil {
				return nil, err
			}
			if en.EmitPolicy() != kernel.Emit {
				return nil, fmt.Errorf("checkpoint was written by strategy %q, not %q", en.Name(), cfg.Strategy)
			}
			return en, nil
		}
		return core.New(p, kernel)
	case StrategyKSlack:
		// The reorder buffer carries all the slack: the kernel behind it
		// sees a sorted stream and runs at K=0, exactly as a QuerySet's
		// per-query kernels do behind their levee. The levee keeps the
		// series, the hook and the sampler (the kernel's view of the stream
		// is delayed by K and would double-report; the levee stamps buffer
		// residency and construction around the kernel's batch); the kernel
		// publishes into a series the levee's carries and builds the
		// lineage records the levee restamps.
		kernel.K = 0
		kernel.Env = engine.Env{Series: env.Series.Carry(), Provenance: env.Provenance}
		if from != nil {
			return kslack.Restore(from, cfg.K, env, func(s *engine.Sections) (engine.Engine, error) {
				return core.Restore(p, kernel.Env, s)
			})
		}
		sorted, err := core.New(p, kernel)
		if err != nil {
			return nil, err
		}
		if ctrl != nil {
			return kslack.NewAdaptiveEngine(ctrl, sorted, env), nil
		}
		return kslack.NewEngine(cfg.K, sorted, env), nil
	case StrategyHybrid:
		// The hybrid meta-engine always runs a controller; with Adaptive
		// disabled the effective K stays pinned at Config.K and only the SLO
		// switching logic runs. The switch adds no instrument of its own: the
		// kernel carries them all.
		if from != nil {
			return hybrid.Restore(p, env, from)
		}
		hctrl, err := adaptive.NewController(cfg.Adaptive, cfg.K)
		if err != nil {
			return nil, err
		}
		return hybrid.New(p, kernel, hybrid.Options{Controller: hctrl})
	default:
		return nil, fmt.Errorf("unknown strategy %q", cfg.Strategy)
	}
}

// aggLateness is the disorder bound the aggregation operator must absorb
// on top of the wrapped strategy: the strategy can surface a match whose
// last timestamp trails the stream clock by up to K, plus one window length
// when a trailing negation defers emission until the gap seals.
func aggLateness(p *plan.Plan, cfg Config) Time {
	l := cfg.K
	if p.HasTrailingNegation() {
		l += p.Window
	}
	return l
}
