package adaptive

import (
	"math/rand"
	"sort"
	"testing"

	"oostream/internal/event"
)

// exactQuantile computes the true q-quantile of a sample by sorting.
func exactQuantile(samples []event.Time, q float64) event.Time {
	if len(samples) == 0 {
		return 0
	}
	s := append([]event.Time(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// TestEstimatorAccuracy checks the bucketed quantile against the exact one:
// the power-of-two layout bounds the error to a factor of two, and the
// max clamp bounds it above.
func TestEstimatorAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dist := range []struct {
		name string
		draw func() event.Time
	}{
		{"uniform", func() event.Time { return event.Time(rng.Intn(1000)) }},
		{"exponential", func() event.Time { return event.Time(rng.ExpFloat64() * 200) }},
		{"constant", func() event.Time { return 337 }},
	} {
		var est Estimator
		var samples []event.Time
		for i := 0; i < 20000; i++ {
			v := dist.draw()
			est.Observe(v)
			samples = append(samples, v)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			got := est.Quantile(q)
			want := exactQuantile(samples, q)
			// Bucket resolution: got must be within [want/2, 2*want+1].
			if got < want/2 || got > 2*want+1 {
				t.Errorf("%s q=%g: estimator %d vs exact %d outside 2x bucket bound", dist.name, q, got, want)
			}
		}
		if est.Quantile(1) > est.Max() {
			t.Errorf("%s: q=1 %d exceeds max %d", dist.name, est.Quantile(1), est.Max())
		}
	}
}

func TestEstimatorEmptyAndClamp(t *testing.T) {
	var est Estimator
	if got := est.Quantile(0.99); got != 0 {
		t.Fatalf("empty estimator quantile = %d, want 0", got)
	}
	est.Observe(-5)
	if got := est.Quantile(1); got != 0 {
		t.Fatalf("negative lag should clamp to 0, quantile(1) = %d", got)
	}
	est.Observe(1000)
	// All mass at 0 and 1000; q=1 must return exactly max (clamped), not
	// the bucket upper bound 1023.
	if got := est.Quantile(1); got != 1000 {
		t.Fatalf("quantile(1) = %d, want max 1000", got)
	}
}

// TestEstimatorDecay checks that old observations age out: after a
// distribution shift and enough decayed windows, the estimate tracks the
// new distribution, not the lifetime mixture.
func TestEstimatorDecay(t *testing.T) {
	var est Estimator
	// Phase 1: heavy mass at ~2000.
	for i := 0; i < 10000; i++ {
		est.Observe(2000)
	}
	// Phase 2: mass at ~50, decaying each window of 256. p99.9 needs the
	// old mass under 0.1% of the decayed total, i.e. ~40 windows at 0.7.
	for w := 0; w < 40; w++ {
		for i := 0; i < 256; i++ {
			est.Observe(50)
		}
		est.Decay(0.7)
	}
	got := est.Quantile(0.999)
	if got > 100 {
		t.Fatalf("after decay, q999 = %d; old phase-1 mass (2000) should have aged out", got)
	}
	if est.Samples() != 10000+40*256 {
		t.Fatalf("lifetime samples = %d, want %d", est.Samples(), 10000+40*256)
	}
	if est.Max() != 2000 {
		t.Fatalf("max = %d, want 2000 (undecayed)", est.Max())
	}
}

func TestConfigNormalizedDefaults(t *testing.T) {
	cfg, err := Config{Enabled: true}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Quantile != 0.999 || cfg.Margin != 1.25 || cfg.DecisionEvery != 256 || cfg.ShrinkAfter != 3 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestConfigNormalizedRejects(t *testing.T) {
	bad := []Config{
		{Quantile: 1.5},
		{Quantile: -0.1},
		{Margin: 0.5},
		{MinK: -1},
		{MinK: 100, Limits: Limits{MaxLag: 50}},
		{DecisionEvery: -1},
		{ShrinkAfter: -1},
		{SLO: SLO{MaxLatency: -1}},
		{Limits: Limits{MaxBufferedEvents: -1}},
		{Limits: Limits{MaxLag: -1}},
	}
	for i, c := range bad {
		if _, err := c.Normalized(); err == nil {
			t.Errorf("case %d: config %+v normalized without error", i, c)
		}
	}
	if _, err := NewController(Config{}, -1); err == nil {
		t.Error("a negative initial bound built a controller")
	}
}

// feed pushes n observations of constant lag through the controller.
func feed(c *Controller, lag event.Time, n int) {
	for i := 0; i < n; i++ {
		c.ObserveLag(lag)
	}
}

// TestControllerColdStart: before minSamples observations the controller
// must keep its initial bound no matter what it sees.
func TestControllerColdStart(t *testing.T) {
	c := MustController(Config{Enabled: true, DecisionEvery: 8}, 500)
	feed(c, 5000, minSamples-8) // several decision windows, all under the cold-start bar
	if got := c.EffectiveK(); got != 500 {
		t.Fatalf("cold start moved K to %d, want the initial 500", got)
	}
	feed(c, 5000, 2*int(minSamples)) // past cold start: now it must grow
	if got := c.EffectiveK(); got <= 500 {
		t.Fatalf("post cold start K = %d, want growth above 500", got)
	}
}

// TestControllerTracksQuantile: with steady lag the derived K converges to
// quantile × margin (within bucket resolution).
func TestControllerTracksQuantile(t *testing.T) {
	c := MustController(Config{Enabled: true, DecisionEvery: 64, Margin: 1.25}, 10)
	feed(c, 800, 1024)
	got := c.EffectiveK()
	want := event.Time(800 * 1.25)
	if got < want/2 || got > 2*want {
		t.Fatalf("K = %d, want ~%d (quantile 800 x margin 1.25, within bucket bound)", got, want)
	}
	if c.MaxKObserved() < got {
		t.Fatalf("MaxKObserved %d < current K %d", c.MaxKObserved(), got)
	}
}

// TestControllerHysteresis drives decision windows white-box (fresh
// estimator per window, then decide()) so each window's target is exactly
// the fed lag: growth fires on the first high window; shrink needs
// ShrinkAfter consecutive windows and resets on a contradicting window.
func TestControllerHysteresis(t *testing.T) {
	c := MustController(Config{Enabled: true, Margin: 1, ShrinkAfter: 3}, 1000)
	// window closes one decision window whose margin-padded target is
	// exactly lag (single-bucket estimator, q-interpolation clamps to max).
	window := func(lag event.Time) {
		c.est = Estimator{}
		for i := 0; i < minSamples; i++ {
			c.est.Observe(lag)
		}
		c.decide()
	}

	// Growth: one high window is enough; an in-band one is not.
	window(1100)
	if got := c.NominalK(); got != 1000 {
		t.Fatalf("K moved to %d on an in-band window, want 1000", got)
	}
	window(4000)
	if got := c.NominalK(); got != 4000 {
		t.Fatalf("K = %d after 1 high window, want 4000", got)
	}

	// Shrink: two low windows do nothing...
	window(100)
	window(100)
	if got := c.NominalK(); got != 4000 {
		t.Fatalf("K shrank to %d after 2 low windows, want 4000 (ShrinkAfter=3)", got)
	}
	// ...the third fires.
	window(100)
	if got := c.NominalK(); got != 100 {
		t.Fatalf("K = %d after 3 low windows, want 100", got)
	}

	// Streak reset: grow back up, two low windows, an in-band window, then
	// two more low windows — no shrink (the streak was broken).
	window(4000)
	base := c.NominalK()
	window(100)
	window(100)
	window(base) // in-band window resets the shrink streak
	window(100)
	window(100)
	if got := c.NominalK(); got != base {
		t.Fatalf("K = %d, want %d: the in-band window should reset the shrink streak", got, base)
	}
	// A contradicting (high) window also resets it: it grows K at once.
	// (An in-band window first zeroes the streak left over from above.)
	window(base)
	window(100)
	window(100)
	window(9000)
	window(100)
	window(100)
	if got := c.NominalK(); got != 9000 {
		t.Fatalf("K = %d, want 9000: the high window should reset the shrink streak", got)
	}
}

// TestControllerToleranceBand: targets within the dead band produce no
// resizes.
func TestControllerToleranceBand(t *testing.T) {
	c := MustController(Config{Enabled: true, DecisionEvery: 64, Margin: 1}, 1100)
	feed(c, 1000, 1024)
	// Estimator q999 of constant 1000 is ~1000–1023; with margin 1 the
	// target is within ±15% of 1100.
	if got := c.Resizes(); got != 0 {
		t.Fatalf("resizes = %d inside tolerance band, want 0 (K=%d)", got, c.NominalK())
	}
}

// TestControllerClamps: MinK and Limits.MaxLag bound the derived K.
func TestControllerClamps(t *testing.T) {
	c := MustController(Config{Enabled: true, DecisionEvery: 64, MinK: 50, Limits: Limits{MaxLag: 300}}, 100)
	feed(c, 10000, 1024)
	if got := c.EffectiveK(); got != 300 {
		t.Fatalf("K = %d, want Limits.MaxLag clamp 300", got)
	}
	feed(c, 0, 4096)
	if got := c.EffectiveK(); got != 50 {
		t.Fatalf("K = %d, want MinK clamp 50", got)
	}
}

// TestControllerDisabled: a disabled controller never moves K but still
// feeds the estimator for SLO reads.
func TestControllerDisabled(t *testing.T) {
	c := MustController(Config{DecisionEvery: 64}, 77)
	feed(c, 9000, 2048)
	if got := c.EffectiveK(); got != 77 {
		t.Fatalf("disabled controller moved K to %d, want 77", got)
	}
	if got := c.LagQuantile(); got < 4500 {
		t.Fatalf("disabled controller quantile = %d, want estimator still fed", got)
	}
}

// TestControllerDegradation: NoteState enters degraded mode above the
// limit (clamping effective K to MinK), exits at 3/4 of it, and nominal K
// is preserved throughout.
func TestControllerDegradation(t *testing.T) {
	c := MustController(Config{Enabled: true, MinK: 10,
		Limits: Limits{MaxBufferedEvents: 100}}, 1000)
	if c.Degraded() {
		t.Fatal("fresh controller degraded")
	}
	c.NoteState(100) // at the limit: not over yet
	if c.Degraded() {
		t.Fatal("degraded at exactly the limit, want strictly above")
	}
	c.NoteState(101)
	if !c.Degraded() {
		t.Fatal("not degraded above the limit")
	}
	if got := c.EffectiveK(); got != 10 {
		t.Fatalf("degraded effective K = %d, want MinK 10", got)
	}
	if got := c.NominalK(); got != 1000 {
		t.Fatalf("degraded nominal K = %d, want preserved 1000", got)
	}
	c.NoteState(80) // above the 3/4 exit threshold (75): still degraded
	if !c.Degraded() {
		t.Fatal("exited degradation above 3/4 threshold")
	}
	c.NoteState(75)
	if c.Degraded() {
		t.Fatal("still degraded at 3/4 threshold")
	}
	if got := c.EffectiveK(); got != 1000 {
		t.Fatalf("post-degradation effective K = %d, want nominal 1000", got)
	}
	// MaxKObserved includes the pre-degradation K, not the clamped one only.
	if got := c.MaxKObserved(); got != 1000 {
		t.Fatalf("MaxKObserved = %d, want 1000", got)
	}
}

// TestControllerSetK: external resizes clamp and publish atomically.
func TestControllerSetK(t *testing.T) {
	c := MustController(Config{Enabled: true, MinK: 10, Limits: Limits{MaxLag: 500}}, 100)
	c.SetK(9999)
	if got := c.EffectiveK(); got != 500 {
		t.Fatalf("SetK(9999) -> %d, want Limits.MaxLag clamp 500", got)
	}
	c.SetK(-3)
	if got := c.EffectiveK(); got != 10 {
		t.Fatalf("SetK(-3) -> %d, want MinK clamp 10", got)
	}
	if got := c.MaxKObserved(); got != 500 {
		t.Fatalf("MaxKObserved = %d, want 500", got)
	}
}

// TestControllerExportRestore round-trips the full controller state.
func TestControllerExportRestore(t *testing.T) {
	c := MustController(Config{Enabled: true, DecisionEvery: 64,
		Limits: Limits{MaxBufferedEvents: 1000}}, 10)
	feed(c, 700, 500)
	c.NoteState(1001)
	st := c.Export()

	r, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if r.EffectiveK() != c.EffectiveK() || r.NominalK() != c.NominalK() ||
		r.MaxKObserved() != c.MaxKObserved() || r.Degraded() != c.Degraded() {
		t.Fatalf("restore mismatch: %+v vs %+v", r.Snapshot(), c.Snapshot())
	}
	if r.est.Samples() != c.est.Samples() || r.LagQuantile() != c.LagQuantile() {
		t.Fatalf("estimator restore mismatch: samples %d vs %d, q %d vs %d",
			r.est.Samples(), c.est.Samples(), r.LagQuantile(), c.LagQuantile())
	}
	// The restored controller keeps learning identically.
	feed(c, 700, 300)
	feed(r, 700, 300)
	if r.NominalK() != c.NominalK() {
		t.Fatalf("post-restore divergence: %d vs %d", r.NominalK(), c.NominalK())
	}
}

// TestControllerConcurrentReads exercises the atomic read paths while the
// owner feeds observations (run with -race).
func TestControllerConcurrentReads(t *testing.T) {
	c := MustController(Config{Enabled: true, DecisionEvery: 16,
		Limits: Limits{MaxBufferedEvents: 50}}, 100)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			_ = c.EffectiveK()
			_ = c.NominalK()
			_ = c.MaxKObserved()
			_ = c.Degraded()
			if i%100 == 0 {
				c.SetK(event.Time(i % 1000))
			}
		}
	}()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		c.ObserveLag(event.Time(rng.Intn(2000)))
		if i%50 == 0 {
			c.NoteState(rng.Intn(100))
		}
	}
	<-done
}
