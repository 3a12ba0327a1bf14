package obsv

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock replaces nowNanos with a manually advanced clock and returns
// (advance, restore). Tests using it must not run in parallel.
func fakeClock() (advance func(time.Duration), restore func()) {
	saved := nowNanos
	var now int64
	nowNanos = func() int64 { return now }
	return func(d time.Duration) { now += int64(d) }, func() { nowNanos = saved }
}

// TestStageSumEqualsWall drives one span through four stage boundaries on
// a fake clock and checks the accounting identity the package doc
// promises: the per-stage sums add up to the end-to-end wall time exactly
// (whole-microsecond durations, so no truncation slack is needed).
func TestStageSumEqualsWall(t *testing.T) {
	advance, restore := fakeClock()
	defer restore()

	ls := NewLatencySampler(1, NewSeries("t"), nil)
	ls.Begin(0)
	advance(11 * time.Microsecond)
	ls.StageEnd(0, StageBuffer)
	advance(7 * time.Microsecond)
	ls.StageEnd(0, StageWAL)
	advance(23 * time.Microsecond)
	ls.StageEnd(0, StageConstruct)
	advance(3 * time.Microsecond)
	ls.Finish(0) // tail → StageEmit

	r := ls.Report()
	if r.Wall.Count != 1 || r.Wall.SumUs != 44 {
		t.Fatalf("wall = %+v, want count 1 sum 44", r.Wall)
	}
	want := map[string]uint64{"buffer": 11, "wal": 7, "construct": 23, "emit": 3}
	if len(r.Stages) != len(want) {
		t.Fatalf("stages %v, want %d entries", r.Stages, len(want))
	}
	var sum uint64
	for name, us := range want {
		st, ok := r.Stages[name]
		if !ok || st.SumUs != us {
			t.Errorf("stage %q = %+v, want sum %d", name, st, us)
		}
		sum += st.SumUs
	}
	if sum != r.Wall.SumUs {
		t.Fatalf("stage sum %d != wall %d", sum, r.Wall.SumUs)
	}
}

// TestSamplingDeterministic pins the sampling decision: a pure function of
// Seq, SampleEvery rounded up to a power of two.
func TestSamplingDeterministic(t *testing.T) {
	ls := NewLatencySampler(100, NewSeries("t"), nil)
	if got := ls.SampleEvery(); got != 128 {
		t.Fatalf("SampleEvery() = %d, want 128 (100 rounded up)", got)
	}
	for seq := uint64(0); seq < 1024; seq++ {
		if got, want := ls.Sampled(seq), seq%128 == 0; got != want {
			t.Fatalf("Sampled(%d) = %v, want %v", seq, got, want)
		}
	}
	var nilLS *LatencySampler
	if nilLS.Sampled(0) || nilLS.SampleEvery() != 0 {
		t.Fatal("nil sampler must sample nothing")
	}
}

// TestBeginFirstWins checks the outermost-layer-wins claim: a second Begin
// on a live seq neither re-anchors the span nor double-counts it.
func TestBeginFirstWins(t *testing.T) {
	advance, restore := fakeClock()
	defer restore()

	ls := NewLatencySampler(1, NewSeries("t"), nil)
	ls.Begin(7)
	advance(10 * time.Microsecond)
	ls.Begin(7) // inner layer: no-op
	advance(5 * time.Microsecond)
	ls.Finish(7)

	r := ls.Report()
	if r.SpansSampled != 1 {
		t.Fatalf("SpansSampled = %d, want 1", r.SpansSampled)
	}
	if r.Wall.SumUs != 15 {
		t.Fatalf("wall sum %d, want 15 (anchored at the first Begin)", r.Wall.SumUs)
	}
}

// TestHoldFinishHeldAbandon exercises the buffering protocol: Hold makes
// the outer Finish a no-op, FinishHeld closes regardless, Abandon frees
// without observing.
func TestHoldFinishHeldAbandon(t *testing.T) {
	advance, restore := fakeClock()
	defer restore()

	ls := NewLatencySampler(1, NewSeries("t"), nil)

	ls.Begin(1)
	ls.Hold(1)
	advance(time.Microsecond)
	ls.Finish(1) // held: must not close
	if r := ls.Report(); r.Wall.Count != 0 {
		t.Fatalf("held span closed by Finish: %+v", r.Wall)
	}
	advance(time.Microsecond)
	ls.FinishHeld(1)
	if r := ls.Report(); r.Wall.Count != 1 || r.Wall.SumUs != 2 {
		t.Fatalf("FinishHeld: wall %+v, want count 1 sum 2", r.Wall)
	}

	ls.Begin(2)
	advance(time.Microsecond)
	ls.Abandon(2)
	r := ls.Report()
	if r.SpansAbandoned != 1 {
		t.Fatalf("SpansAbandoned = %d, want 1", r.SpansAbandoned)
	}
	if r.Wall.Count != 1 {
		t.Fatalf("abandoned span polluted the wall histogram: %+v", r.Wall)
	}
	// The slot is free again: a new span for the same seq works.
	ls.Begin(2)
	advance(3 * time.Microsecond)
	ls.Finish(2)
	if r := ls.Report(); r.Wall.Count != 2 {
		t.Fatalf("slot not reusable after Abandon: %+v", r.Wall)
	}
}

// TestStageIntoMirrors checks per-query attribution: the duration lands in
// the sampler's own series (preserving wall = Σ stages) and is copied into
// the extra series; passing the sampler's own series must not double count.
func TestStageIntoMirrors(t *testing.T) {
	advance, restore := fakeClock()
	defer restore()

	own := NewSeries("own")
	per := NewSeries("per")
	ls := NewLatencySampler(1, own, nil)

	ls.Begin(0)
	advance(4 * time.Microsecond)
	ls.StageInto(per, 0, StageConstruct)
	advance(6 * time.Microsecond)
	ls.StageInto(own, 0, StageConstruct) // same series: one observation
	ls.Finish(0)

	if got := own.StageLat[StageConstruct].View(); got.Count != 2 || got.Sum != 10 {
		t.Fatalf("own construct = %+v, want count 2 sum 10", got)
	}
	if got := per.StageLat[StageConstruct].View(); got.Count != 1 || got.Sum != 4 {
		t.Fatalf("mirrored construct = %+v, want count 1 sum 4", got)
	}
	if r := ls.Report(); r.Wall.SumUs != 10 {
		t.Fatalf("wall sum %d, want 10", r.Wall.SumUs)
	}
}

// TestSlotTableOverflow opens more concurrent spans than the table can
// hold and checks the overflow is counted, not silently lost: every Begin
// is accounted either sampled or dropped, and dropped events proceed
// unmeasured (StageEnd/Finish on them are no-ops).
func TestSlotTableOverflow(t *testing.T) {
	ls := NewLatencySampler(1, NewSeries("t"), nil)
	const n = 4 * slotCount
	for seq := uint64(0); seq < n; seq++ {
		ls.Begin(seq)
	}
	r := ls.Report()
	if r.SpansDropped == 0 {
		t.Fatal("expected drops with 4x slotCount live spans")
	}
	if r.SpansSampled+r.SpansDropped != n {
		t.Fatalf("sampled %d + dropped %d != %d begins", r.SpansSampled, r.SpansDropped, n)
	}
	// Closing a dropped span is a harmless no-op; closing the live ones
	// must observe exactly the live population.
	for seq := uint64(0); seq < n; seq++ {
		ls.StageEnd(seq, StageConstruct)
		ls.Finish(seq)
	}
	if got := ls.Report(); got.Wall.Count != r.SpansSampled {
		t.Fatalf("wall count %d, want %d (live spans)", got.Wall.Count, r.SpansSampled)
	}
}

// TestNilSamplerSafe calls every method on a nil receiver — the off
// configuration — and checks nothing panics and Report is nil.
func TestNilSamplerSafe(t *testing.T) {
	var ls *LatencySampler
	ls.Begin(0)
	ls.StageEnd(0, StageConstruct)
	ls.StageInto(NewSeries("x"), 0, StageConstruct)
	ls.Hold(0)
	ls.Finish(0)
	ls.FinishHeld(0)
	ls.Abandon(0)
	if ls.Report() != nil || ls.Series() != nil || ls.SLO() != nil {
		t.Fatal("nil sampler must report nil")
	}
}

// TestQuantileEdges pins the bucket-edge quantile convention, including
// the bit-length-64 bucket whose upper bound relies on shift wraparound.
func TestQuantileEdges(t *testing.T) {
	var v HistView
	if v.Quantile(0.5) != 0 {
		t.Fatal("empty view quantile must be 0")
	}
	var h Hist
	h.Observe(0)
	h.Observe(3)
	h.Observe(math.MaxUint64)
	view := h.View()
	if got := view.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %d, want 3 (bucket upper bound)", got)
	}
	if got := view.Quantile(1); got != math.MaxUint64 {
		t.Fatalf("p100 = %d, want MaxUint64", got)
	}
	if got := view.Quantile(0.99); got != math.MaxUint64 {
		t.Fatalf("p99 = %d, want MaxUint64 (rank lands in bucket 64)", got)
	}
}

// TestSLOTrackerWindows marches a fake clock through bucket recycling and
// checks window sums, good ratios, and burn-rate normalization.
func TestSLOTrackerWindows(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{
		Objective: time.Millisecond,
		Target:    0.9,
		Windows:   []time.Duration{5 * time.Second, time.Minute},
	})
	var now int64
	tr.now = func() int64 { return now }

	// Seconds 0..9: one good and one bad observation per second.
	for s := 0; s < 10; s++ {
		now = int64(s) * int64(time.Second)
		tr.Observe(int64(500 * time.Microsecond)) // good
		tr.Observe(int64(2 * time.Millisecond))   // bad
	}
	snap := tr.Snapshot()
	if snap.ObjectiveMs != 1 || snap.Target != 0.9 {
		t.Fatalf("config round-trip: %+v", snap)
	}
	w5 := snap.Windows[0]
	if w5.Window != "5s" || w5.Good != 5 || w5.Bad != 5 {
		t.Fatalf("5s window = %+v, want 5 good 5 bad", w5)
	}
	if w5.GoodRatio != 0.5 || math.Abs(w5.BurnRate-5.0) > 1e-9 {
		t.Fatalf("5s ratio/burn = %v/%v, want 0.5/5.0", w5.GoodRatio, w5.BurnRate)
	}
	w60 := snap.Windows[1]
	if w60.Window != "1m" || w60.Good != 10 || w60.Bad != 10 {
		t.Fatalf("1m window = %+v, want 10 good 10 bad", w60)
	}

	// Jump far ahead: everything ages out; an empty window reads ratio 1,
	// burn 0.
	now = int64(time.Hour)
	w := tr.Snapshot().Windows[1]
	if w.Good != 0 || w.Bad != 0 || w.GoodRatio != 1 || w.BurnRate != 0 {
		t.Fatalf("aged-out window = %+v", w)
	}

	if NewSLOTracker(SLOConfig{}) != nil {
		t.Fatal("zero objective must disable the tracker")
	}
	var nilTr *SLOTracker
	nilTr.Observe(1)
	if nilTr.Snapshot() != nil {
		t.Fatal("nil tracker must snapshot nil")
	}
}

// TestSLOPrometheus checks the registered exposition block renders both
// families with engine and window labels.
func TestSLOPrometheus(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Objective: time.Millisecond, Target: 0.99})
	var now int64
	tr.now = func() int64 { return now }
	tr.Observe(int64(time.Microsecond))

	var sb strings.Builder
	if err := tr.WritePrometheus(&sb, "latency"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE oostream_slo_burn_rate gauge",
		`oostream_slo_burn_rate{engine="latency",window="1m"} 0`,
		`oostream_slo_good_ratio{engine="latency",window="30m"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestConcurrentObserveAndScrape races span writers against Report and
// the Prometheus scrape — the -race exercise for the sampler's atomics
// and the SLO bucket recycling.
func TestConcurrentObserveAndScrape(t *testing.T) {
	reg := NewRegistry()
	series := reg.Series("latency")
	slo := NewSLOTracker(SLOConfig{Objective: time.Millisecond, Target: 0.99})
	ls := NewLatencySampler(4, series, slo)
	reg.RegisterPrometheus(func(w io.Writer) error { return slo.WritePrometheus(w, "latency") })

	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for seq := uint64(g * 100_000); seq < uint64(g*100_000+20_000); seq++ {
				ls.Begin(seq)
				ls.StageEnd(seq, StageBuffer)
				ls.StageEnd(seq, StageConstruct)
				if seq%32 == 0 {
					ls.Abandon(seq)
				} else {
					ls.Finish(seq)
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	scraper := make(chan struct{})
	go func() {
		defer close(scraper)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = ls.Report()
			_ = reg.WritePrometheus(io.Discard)
		}
	}()
	writers.Wait()
	close(stop)
	<-scraper
}

// TestSamplerZeroAllocations pins the zero-cost claims (E22's structural
// half): the nil receiver (sampling off), the non-sampled fast path, and
// the sampled span protocol itself all allocate nothing per event — the
// slot table is fixed and every instrument is an atomic word.
func TestSamplerZeroAllocations(t *testing.T) {
	var off *LatencySampler
	if a := testing.AllocsPerRun(200, func() {
		off.Begin(3)
		off.StageEnd(3, StageConstruct)
		off.Finish(3)
	}); a != 0 {
		t.Fatalf("nil sampler allocated %v per event", a)
	}
	ls := NewLatencySampler(256, NewSeries("t"), nil)
	if a := testing.AllocsPerRun(200, func() {
		ls.Begin(3) // 3 & 255 != 0: not sampled
		ls.StageEnd(3, StageConstruct)
		ls.Finish(3)
	}); a != 0 {
		t.Fatalf("non-sampled path allocated %v per event", a)
	}
	var seq uint64
	if a := testing.AllocsPerRun(200, func() {
		ls.Begin(seq)
		ls.StageEnd(seq, StageConstruct)
		ls.Finish(seq)
		seq += 256
	}); a != 0 {
		t.Fatalf("sampled span protocol allocated %v per span", a)
	}
}
