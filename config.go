package oostream

import (
	"fmt"
	"slices"
	"time"

	"oostream/internal/adaptive"
)

// Strategy selects the out-of-order handling approach.
type Strategy string

// Available strategies.
const (
	// StrategyNative is the paper's native out-of-order engine (default):
	// the out-of-order kernel holding negation output until it seals.
	StrategyNative Strategy = "native"
	// StrategyKSlack reorders with a K-slack buffer in front of the kernel
	// running at K=0 (the levee baseline: every result waits at the buffer).
	StrategyKSlack Strategy = "kslack"
	// StrategySpeculate is the kernel under its emit-then-retract policy:
	// it emits eagerly and compensates with retractions (the aggressive
	// extension).
	StrategySpeculate Strategy = "speculate"
	// StrategyHybrid flips one kernel between the speculate and native
	// emission policies: it speculates while disorder is low and falls back
	// to sealing when the retraction rate or the adaptive disorder bound
	// breaches Config.Adaptive.SLO. A switch rebuilds nothing — matches
	// already out stay retractable until they seal, matches held back are
	// released when speculation resumes — so the net output stays exact
	// across switches. The kernel always runs an adaptive controller (set
	// Config.Adaptive.Enabled for dynamic K; otherwise K stays pinned at
	// Config.K).
	StrategyHybrid Strategy = "hybrid"
)

// Strategies lists every available strategy, in evaluation-table order. Each
// runs the one out-of-order kernel; the paper's in-order baseline is a
// reference kernel the experiments drive directly (internal/inorder).
func Strategies() []Strategy {
	return []Strategy{StrategyKSlack, StrategyNative, StrategySpeculate, StrategyHybrid}
}

// Adaptive disorder-control configuration, re-exported from the internal
// controller package. Adaptive.Enabled derives K online from a lag
// quantile; Adaptive.SLO drives the hybrid strategy's switching;
// Adaptive.Limits bounds state and lag via degradation (shedding). The
// zero value disables all three.
type (
	// Adaptive configures the dynamic-K controller (see Config.Adaptive).
	Adaptive = adaptive.Config
	// SLO holds the hybrid strategy's switching targets.
	SLO = adaptive.SLO
	// Limits holds the overload-degradation bounds.
	Limits = adaptive.Limits
)

// LatencySLO attaches a multi-window burn-rate tracker to the latency
// sampler: every sampled event whose end-to-end wall-clock latency is at
// or below Objective counts good, and the tracker reports the error-budget
// burn rate over rolling 1m, 5m and 30m windows (short windows catch fast
// burns, long windows slow ones). Requires Latency.SampleEvery > 0 — the
// tracker is fed by sampled spans.
type LatencySLO struct {
	// Objective is the per-event wall-clock latency objective. Zero
	// disables SLO tracking.
	Objective time.Duration
	// Target is the fraction of events that must meet the objective
	// (e.g. 0.99). 0 means 0.99; must be below 1 (a 100% target leaves no
	// error budget to burn).
	Target float64
}

// Latency configures sampled wall-clock latency attribution: a
// deterministic 1-in-N sample of events (by sequence number, rounded up to
// a power of two) is span-tracked through the pipeline, decomposing each
// sampled event's real elapsed time into stage durations — queue wait,
// reorder-buffer residency, WAL+commit, match construction, emit — whose
// sum equals the end-to-end wall time by construction. This complements
// the logical instruments (result latency, watermark lag), which measure
// stream time and cannot see scheduling, batching linger, or backpressure.
//
// The sample decision never perturbs engine behavior (match output is
// byte-identical with sampling on or off — enforced by the differential
// harness), and a zero SampleEvery leaves every call site as a single
// predictable nil-check branch with no allocation.
type Latency struct {
	// SampleEvery samples one in N events; rounded up to a power of two.
	// 0 disables the sampler entirely.
	SampleEvery int
	// SLO optionally tracks an error-budget burn rate over the sampled
	// wall latencies; see LatencySLO.
	SLO LatencySLO
}

// validate is shared by Config and QuerySetConfig.
func (l Latency) validate() error {
	if l.SampleEvery < 0 {
		return fmt.Errorf("Latency.SampleEvery must be >= 0, got %d", l.SampleEvery)
	}
	if l.SLO.Objective < 0 {
		return fmt.Errorf("Latency.SLO.Objective must be >= 0, got %s", l.SLO.Objective)
	}
	if l.SLO.Target < 0 || l.SLO.Target >= 1 {
		return fmt.Errorf("Latency.SLO.Target must be in [0, 1), got %g", l.SLO.Target)
	}
	if l.SLO.Objective > 0 && l.SampleEvery == 0 {
		return fmt.Errorf("Latency.SLO requires Latency.SampleEvery > 0: the tracker is fed by sampled spans")
	}
	return nil
}

// Config configures an Engine.
type Config struct {
	// Strategy selects the engine; default StrategyNative.
	Strategy Strategy
	// K is the disorder bound (slack) in logical milliseconds: no event is
	// assumed to arrive more than K time units after the maximum timestamp
	// seen, and one that does is dropped (counted in Metrics). With Adaptive
	// it is the bound the controller starts at.
	K Time
	// DisableTriggerOpt disables the kernel's scan optimization (ablation
	// knob; results are unchanged, CPU cost rises).
	DisableTriggerOpt bool
	// PurgeEvery runs state purging every PurgeEvery events; 0 = default
	// (64), negative = never (ablation knob; memory then grows unbounded).
	PurgeEvery int
	// Provenance makes every emitted (and retracted) match carry a lineage
	// record (Match.Prov): the contributing events, key group, window
	// bounds, trigger and traversal detail, and — for retractions — the
	// late event that invalidated the result. Off by default; when off the
	// engines skip all record construction (one predictable branch per
	// emission). Lineage is NOT checkpointed: matches sealed after a
	// Restore carry records marked Truncated. See Engine.StateSnapshot for
	// the companion live-state view.
	Provenance bool
	// Observer, when non-nil, publishes the engine's counters, gauges, and
	// latency/watermark-lag histograms as live named series in the registry
	// (scrapeable over HTTP via internal/obsv/httpx — the CLIs' -listen
	// flag). An engine publishes one series named after its strategy.
	// Observer and Trace are the only instrumentation injection points.
	Observer *Observer
	// Trace, when non-nil, receives a TraceEvent on every match-lifecycle
	// step (admit, drop, stack push, predecessor repair, construction
	// trigger, emit, retract, purge, heartbeat, flush). Nil costs one
	// predictable branch per step.
	Trace TraceHook
	// Latency configures sampled wall-clock latency attribution: per-stage
	// span timing on a deterministic 1-in-N event sample, an end-to-end
	// wall histogram, and an optional SLO burn-rate tracker. Read it back
	// via Engine.LatencyReport, StateSnapshot.Latency, or — with Observer
	// set — the /metrics, /varz, and /debug/latency HTTP surfaces. The
	// zero value disables sampling at zero cost.
	Latency Latency
	// Adaptive configures dynamic disorder control: Enabled re-derives K
	// online as a lag quantile (Config.K then only seeds the controller);
	// Limits adds overload degradation (deterministic oldest-first shedding
	// when state or lag exceeds the bounds); SLO drives StrategyHybrid's
	// switching.
	Adaptive Adaptive
}

func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = StrategyNative
	}
	return c
}

func (c Config) validate() error {
	if !slices.Contains(Strategies(), c.Strategy) {
		return fmt.Errorf("unknown strategy %q", c.Strategy)
	}
	if c.K < 0 {
		return fmt.Errorf("K must be >= 0, got %d", c.K)
	}
	if err := c.Latency.validate(); err != nil {
		return err
	}
	if _, err := c.Adaptive.Normalized(); err != nil {
		return fmt.Errorf("Adaptive: %w", err)
	}
	return nil
}

// adaptiveActive reports whether the config calls for an adaptive
// controller on the non-hybrid strategies: dynamic K or degradation
// limits. (StrategyHybrid always runs a controller.)
func (c Config) adaptiveActive() bool {
	return c.Adaptive.Enabled || c.Adaptive.Limits != (Limits{})
}

// adaptiveController builds the engine's controller, starting at K, or nil
// when the config doesn't call for one.
func (c Config) adaptiveController() (*adaptive.Controller, error) {
	if !c.adaptiveActive() {
		return nil, nil
	}
	return adaptive.NewController(c.Adaptive, c.K)
}
