// Package adaptive closes the control loop the paper leaves open: the
// disorder bound K is not a constant the operator tunes offline but a
// quantity derived online from the watermark-lag distribution the engines
// already measure. A Controller owns a decayed lag-quantile Estimator, fed
// from the same observation point as Series.WatermarkLag (per admitted
// event: how far its timestamp lags the max timestamp seen), and re-derives
// K every decision window as a configured quantile times a safety margin:
// at once when the target grows, after a streak of windows when it shrinks.
//
// Dynamic K is made safe by the monotone-frontier discipline the engines
// implement on top of it: an engine never uses clock − K(t) directly as its
// safe clock but rather frontier = max over time of (clock − K(t)), which
// is monotone non-decreasing. Growing K takes effect immediately (the
// frontier merely stops advancing); shrinking K can never retract the
// frontier — it only lets future clock advances move it faster, which is
// exactly the "shrink only at release/purge boundaries" rule, strengthened
// into an invariant the differential harness can prove: every admitted
// event's lag is bounded by the maximum K the controller ever published, so
// the adaptive run's net output equals a static-K run with K = max K
// observed over the admitted stream.
//
// The Controller also carries the robustness policy knobs: SLO (the hybrid
// meta-engine's switch thresholds) and Limits (overload degradation — when
// buffered state exceeds Limits.MaxBufferedEvents the controller enters
// degraded mode and clamps the effective K to MinK, advancing the frontier
// so state drains; Limits.MaxLag caps the derived K outright, bounding
// result latency). EffectiveK is an atomic load, so concurrent readers
// (state snapshots, external resizers via SetK) never race the owner
// feeding observations.
package adaptive

import (
	"fmt"
	"sync/atomic"

	"oostream/internal/event"
)

// SLO is the service-level objective the hybrid meta-engine enforces:
// it speculates (low latency, revisable output) while the observed
// disorder is cheap and seals (final output, bounded-lag latency) when a
// threshold is breached.
type SLO struct {
	// MaxLatency bounds the tolerable result-finality latency in logical
	// ms: when the derived K (the lag quantile, which is how long sealing
	// — or speculative finality — lags the clock) exceeds it, the hybrid
	// switches to sealing. 0 disables the latency trigger.
	MaxLatency event.Time `json:"maxLatency,omitempty"`
	// MaxRetractionRate bounds retractions per admitted event over a
	// decision window: above it, speculation is churning and the hybrid
	// switches to sealing. 0 disables the retraction trigger.
	MaxRetractionRate float64 `json:"maxRetractionRate,omitempty"`
}

// Limits is the overload-degradation policy: instead of growing state or
// latency unboundedly under a disorder storm, the engine sheds
// deterministically and reports it.
type Limits struct {
	// MaxBufferedEvents bounds buffered state (the kslack reorder buffer;
	// total live state for the native engine). Above it the engine sheds
	// oldest-first (kslack) and the controller enters degraded mode,
	// clamping the effective K to MinK so the frontier advances and state
	// drains. 0 disables.
	MaxBufferedEvents int `json:"maxBufferedEvents,omitempty"`
	// MaxLag caps the derived K outright: events later than MaxLag are
	// dropped no matter what the quantiles say, bounding both buffering
	// state and result latency. 0 disables.
	MaxLag event.Time `json:"maxLag,omitempty"`
}

// Config configures a Controller. The zero value is not useful; use
// Normalized (the facade applies defaults through it). The bound a
// controller starts at is passed to NewController (the facade passes
// Config.K).
type Config struct {
	// Enabled turns dynamic K derivation on. A disabled controller still
	// feeds the estimator (the hybrid's SLO checks read it) but keeps K
	// fixed at the bound it was built with.
	Enabled bool `json:"enabled"`
	// Quantile is the lag quantile K tracks, e.g. 0.999. Default 0.999.
	Quantile float64 `json:"quantile"`
	// Margin is the multiplicative safety margin applied to the quantile
	// (1.25 = 25% headroom). Default 1.25.
	Margin float64 `json:"margin"`
	// MinK is the floor of the derived K, and the bound a degraded
	// controller clamps to; default 0. Limits.MaxLag is the ceiling.
	MinK event.Time `json:"minK"`
	// DecisionEvery re-derives K every this many lag observations (one
	// decision window). Default 256.
	DecisionEvery int `json:"decisionEvery"`
	// ShrinkAfter is the hysteresis streak: the derived target must fall
	// below the dead band for this many consecutive decision windows before
	// K shrinks. Default 3. K grows on the first window above the band: a
	// late drop is worse than buffering.
	ShrinkAfter int `json:"shrinkAfter"`

	// SLO is the hybrid meta-engine's switch policy.
	SLO SLO `json:"slo"`
	// Limits is the overload-degradation policy.
	Limits Limits `json:"limits"`
}

// minSamples is the cold-start threshold: until this many lifetime
// observations the controller keeps the bound it was built with (the
// estimate is noise).
const minSamples = 64

// The estimator's recency weighting and the dead band around K were tuned
// once, in EXPERIMENTS.md E20, and nothing has set other values since.
const (
	// decay is the per-decision-window multiplicative decay of the lag
	// histogram.
	decay = 0.7
	// tolerance is the relative dead band around the current K: a target
	// within ±tolerance·K (or within toleranceAbs for small K) counts as
	// evidence in neither direction.
	tolerance = 0.15
	// toleranceAbs is the absolute dead band floor (logical ms): for tiny K
	// a relative band would be zero and every jitter would count.
	toleranceAbs = 4
)

// Normalized applies defaults and validates.
func (c Config) Normalized() (Config, error) {
	if c.Quantile == 0 {
		c.Quantile = 0.999
	}
	if c.Quantile <= 0 || c.Quantile > 1 {
		return c, fmt.Errorf("adaptive quantile must be in (0, 1], got %g", c.Quantile)
	}
	if c.Margin == 0 {
		c.Margin = 1.25
	}
	if c.Margin < 1 {
		return c, fmt.Errorf("adaptive margin must be >= 1, got %g", c.Margin)
	}
	if c.MinK < 0 {
		return c, fmt.Errorf("adaptive MinK must be >= 0, got %d", c.MinK)
	}
	if c.DecisionEvery == 0 {
		c.DecisionEvery = 256
	}
	if c.DecisionEvery < 0 {
		return c, fmt.Errorf("adaptive DecisionEvery must be > 0, got %d", c.DecisionEvery)
	}
	if c.ShrinkAfter == 0 {
		c.ShrinkAfter = 3
	}
	if c.ShrinkAfter < 0 {
		return c, fmt.Errorf("adaptive ShrinkAfter must be > 0, got %d", c.ShrinkAfter)
	}
	if c.SLO.MaxLatency < 0 || c.SLO.MaxRetractionRate < 0 {
		return c, fmt.Errorf("SLO thresholds must be >= 0, got %+v", c.SLO)
	}
	if c.Limits.MaxBufferedEvents < 0 || c.Limits.MaxLag < 0 {
		return c, fmt.Errorf("limits must be >= 0, got %+v", c.Limits)
	}
	if c.Limits.MaxLag > 0 && c.MinK > c.Limits.MaxLag {
		return c, fmt.Errorf("adaptive MinK %d exceeds Limits.MaxLag %d", c.MinK, c.Limits.MaxLag)
	}
	return c, nil
}

// Controller derives the effective disorder bound online. One engine owns
// it (feeds ObserveLag/NoteState from its processing loop); any number of
// goroutines may read EffectiveK/NominalK/Degraded or call SetK — those
// paths are atomic-only.
type Controller struct {
	cfg Config

	// Published state: atomically readable from any goroutine.
	effK     atomic.Int64 // the bound engines enforce (nominal, or MinK when degraded)
	nomK     atomic.Int64 // the quantile-derived bound before degradation
	maxK     atomic.Int64 // max effective K ever published (the static-K equivalence bound)
	degraded atomic.Bool

	// Owner-only estimation state.
	est           Estimator
	sinceDecision int
	shrinkStreak  int
	decisions     uint64
	resizes       uint64
}

// NewController builds a controller starting at bound k (the permanent one
// unless cfg.Enabled) from a normalized config (call Config.Normalized first;
// NewController re-normalizes defensively).
func NewController(cfg Config, k event.Time) (*Controller, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if k < 0 {
		return nil, fmt.Errorf("adaptive initial K must be >= 0, got %d", k)
	}
	c := &Controller{cfg: cfg}
	c.nomK.Store(int64(cfg.clamp(k)))
	c.publish()
	return c, nil
}

// MustController is NewController for known-good configs.
func MustController(cfg Config, k event.Time) *Controller {
	c, err := NewController(cfg, k)
	if err != nil {
		panic(err)
	}
	return c
}

// clamp applies MinK and Limits.MaxLag to a candidate bound.
func (c Config) clamp(k event.Time) event.Time {
	if k < c.MinK {
		k = c.MinK
	}
	if c.Limits.MaxLag > 0 && k > c.Limits.MaxLag {
		k = c.Limits.MaxLag
	}
	return k
}

// publish recomputes the effective K from the nominal K and the degraded
// flag, and maintains the max-K watermark.
func (c *Controller) publish() {
	eff := event.Time(c.nomK.Load())
	if c.degraded.Load() {
		eff = c.cfg.MinK
	}
	eff = c.cfg.clamp(eff)
	c.effK.Store(int64(eff))
	for {
		m := c.maxK.Load()
		if int64(eff) <= m || c.maxK.CompareAndSwap(m, int64(eff)) {
			return
		}
	}
}

// Config returns the controller's normalized configuration.
func (c *Controller) Config() Config { return c.cfg }

// Limits returns the overload-degradation policy.
func (c *Controller) Limits() Limits { return c.cfg.Limits }

// SLO returns the hybrid switch policy.
func (c *Controller) SLO() SLO { return c.cfg.SLO }

// EffectiveK returns the bound engines must enforce right now. Atomic.
func (c *Controller) EffectiveK() event.Time { return event.Time(c.effK.Load()) }

// NominalK returns the quantile-derived bound before degradation clamping;
// engines use it to classify a drop as shed (dropped only because of
// degradation) versus late (violates the nominal bound too). Atomic.
func (c *Controller) NominalK() event.Time { return event.Time(c.nomK.Load()) }

// MaxKObserved returns the largest effective K ever published — the K of
// the static run the adaptive run is output-equivalent to. Atomic.
func (c *Controller) MaxKObserved() event.Time { return event.Time(c.maxK.Load()) }

// Degraded reports whether the controller is in overload degradation.
// Atomic.
func (c *Controller) Degraded() bool { return c.degraded.Load() }

// Resizes returns how many times the derived K actually changed.
func (c *Controller) Resizes() uint64 { return c.resizes }

// SetK overrides the nominal bound directly (external resize; also the
// hybrid's restore path). Safe to call concurrently with readers; the
// owner's next decision window may re-derive it.
func (c *Controller) SetK(k event.Time) {
	if k < 0 {
		k = 0
	}
	c.nomK.Store(int64(c.cfg.clamp(k)))
	c.publish()
}

// ObserveLag feeds one watermark-lag observation (the same signal
// Series.WatermarkLag records: 0 for in-order arrivals, clock − TS for
// out-of-order ones — including bound violators, so a storm of drops is
// evidence to grow K, not invisible). Owner-only. Every DecisionEvery
// observations it closes a decision window: re-derive the target K, apply
// hysteresis, decay the histogram.
func (c *Controller) ObserveLag(lag event.Time) {
	c.est.Observe(lag)
	c.sinceDecision++
	if c.sinceDecision < c.cfg.DecisionEvery {
		return
	}
	c.sinceDecision = 0
	c.decide()
	c.est.Decay(decay)
}

// LagQuantile returns the current decayed estimate of the configured
// quantile (no margin). Owner-side read (the hybrid's SLO check).
func (c *Controller) LagQuantile() event.Time { return c.est.Quantile(c.cfg.Quantile) }

// decide closes one decision window: derive the margin-padded quantile
// target and move K only on a sustained streak outside the tolerance band.
func (c *Controller) decide() {
	c.decisions++
	if !c.cfg.Enabled {
		return
	}
	if c.est.Samples() < minSamples {
		return // cold start: keep the initial bound until the estimate means something
	}
	q := c.est.Quantile(c.cfg.Quantile)
	target := c.cfg.clamp(event.Time(float64(q)*c.cfg.Margin + 0.5))
	cur := event.Time(c.nomK.Load())
	band := max(event.Time(float64(cur)*tolerance), toleranceAbs)
	switch {
	case target > cur+band:
		c.resize(target)
	case target < cur-band:
		c.shrinkStreak++
		if c.shrinkStreak >= c.cfg.ShrinkAfter {
			c.resize(target)
		}
	default:
		c.shrinkStreak = 0
	}
}

func (c *Controller) resize(k event.Time) {
	c.shrinkStreak = 0
	if event.Time(c.nomK.Load()) == k {
		return
	}
	c.nomK.Store(int64(k))
	c.resizes++
	c.publish()
}

// NoteState feeds the live buffered-state size for overload detection,
// with enter/exit hysteresis: degradation starts above MaxBufferedEvents
// and ends once state drains to three quarters of it. Owner-only.
func (c *Controller) NoteState(size int) {
	limit := c.cfg.Limits.MaxBufferedEvents
	if limit <= 0 {
		return
	}
	if !c.degraded.Load() {
		if size > limit {
			c.degraded.Store(true)
			c.publish()
		}
		return
	}
	if size <= limit-limit/4 {
		c.degraded.Store(false)
		c.publish()
	}
}

// State is the controller's serializable state, embedded in the native
// engine's checkpoint so a restored engine resumes with the learned K and
// lag distribution instead of re-learning from its initial bound.
type State struct {
	Config   Config     `json:"config"`
	NominalK event.Time `json:"nominalK"`
	MaxK     event.Time `json:"maxK"`
	Degraded bool       `json:"degraded"`

	SinceDecision int        `json:"sinceDecision"`
	ShrinkStreak  int        `json:"shrinkStreak"`
	Decisions     uint64     `json:"decisions"`
	Resizes       uint64     `json:"resizes"`
	Buckets       []float64  `json:"buckets"`
	Total         float64    `json:"total"`
	Samples       uint64     `json:"samples"`
	MaxLag        event.Time `json:"maxLag"`
}

// Export captures the controller state for checkpointing. Owner-only (the
// engine checkpoints synchronously from its processing context).
func (c *Controller) Export() State {
	buckets, total, samples, maxLag := c.est.export()
	return State{
		Config:        c.cfg,
		NominalK:      event.Time(c.nomK.Load()),
		MaxK:          event.Time(c.maxK.Load()),
		Degraded:      c.degraded.Load(),
		SinceDecision: c.sinceDecision,
		ShrinkStreak:  c.shrinkStreak,
		Decisions:     c.decisions,
		Resizes:       c.resizes,
		Buckets:       buckets,
		Total:         total,
		Samples:       samples,
		MaxLag:        maxLag,
	}
}

// Restore rebuilds a controller from checkpointed state.
func Restore(st State) (*Controller, error) {
	// Built at bound 0, which publishes MinK, below any bound the writer
	// published; the checkpointed bounds are set below.
	c, err := NewController(st.Config, 0)
	if err != nil {
		return nil, err
	}
	c.nomK.Store(int64(st.NominalK))
	c.degraded.Store(st.Degraded)
	c.sinceDecision = st.SinceDecision
	c.shrinkStreak = st.ShrinkStreak
	c.decisions = st.Decisions
	c.resizes = st.Resizes
	c.est.restore(st.Buckets, st.Total, st.Samples, st.MaxLag)
	c.publish()
	// publish never lowers maxK; force the checkpointed watermark if it is
	// higher than anything re-derived above.
	for {
		m := c.maxK.Load()
		if int64(st.MaxK) <= m || c.maxK.CompareAndSwap(m, int64(st.MaxK)) {
			break
		}
	}
	return c, nil
}

// Snapshot is a read-only view of the controller for state introspection.
type Snapshot struct {
	Enabled      bool
	EffectiveK   event.Time
	NominalK     event.Time
	MaxKObserved event.Time
	Degraded     bool
	Resizes      uint64
}

// Snapshot returns the introspection view. The atomic fields are exact;
// Resizes is owner-side and only consistent when called from the
// processing context (like StateSnapshot itself).
func (c *Controller) Snapshot() Snapshot {
	return Snapshot{
		Enabled:      c.cfg.Enabled,
		EffectiveK:   c.EffectiveK(),
		NominalK:     c.NominalK(),
		MaxKObserved: c.MaxKObserved(),
		Degraded:     c.Degraded(),
		Resizes:      c.resizes,
	}
}
