package obsv

import (
	"errors"
	"math"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSnapshotCounters(t *testing.T) {
	s := NewSeries("")
	s.IncIn(false, 0)
	s.IncIn(true, 3)
	s.IncIn(true, 3)
	s.EventsLate.Inc()
	s.Irrelevant.Inc()
	s.IncPredError(errors.New("x"))
	s.AddMatch(false, 10, 2)
	s.AddMatch(false, 30, 4)
	s.AddMatch(true, 0, 0)
	s.ObservePurge(5)
	s.ObservePurge(3)
	s.LiveState.Set(7)
	s.LiveState.Set(3)
	s.SetBound(40, true)

	m := s.Snapshot()
	if m.EventsIn != 3 || m.EventsOOO != 2 || m.EventsLate != 1 {
		t.Errorf("event counters: %+v", m)
	}
	if m.Irrelevant != 1 || m.PredErrors != 1 {
		t.Errorf("aux counters: %+v", m)
	}
	if m.Matches != 2 || m.Retractions != 1 {
		t.Errorf("match counters: %+v", m)
	}
	if m.Purged != 8 || m.PurgeCalls != 2 {
		t.Errorf("purge counters: %+v", m)
	}
	if m.LiveState != 3 || m.PeakState != 7 {
		t.Errorf("state counters: %+v", m)
	}
	if m.CurrentK != 40 || m.MaxK != 40 || !m.Degraded {
		t.Errorf("bound gauges: %+v", m)
	}
	if m.LogicalLat.Count != 2 || m.LogicalLat.Sum != 40 || m.LogicalLat.Mean() != 20 {
		t.Errorf("latency: %+v", m.LogicalLat)
	}
	if m.WatermarkLag.Count != 3 || m.WatermarkLag.Sum != 6 {
		t.Errorf("watermark lag: %+v", m.WatermarkLag)
	}
}

func TestNegativeLatencyClamped(t *testing.T) {
	s := NewSeries("")
	s.AddMatch(false, -5, 0)
	s.IncIn(true, -2)
	m := s.Snapshot()
	if m.LogicalLat.Sum != 0 || m.LogicalLat.Count != 1 {
		t.Errorf("negative latency not clamped: %+v", m.LogicalLat)
	}
	if m.WatermarkLag.Sum != 0 || m.WatermarkLag.Count != 1 {
		t.Errorf("negative lag not clamped: %+v", m.WatermarkLag)
	}
}

func TestSnapshotString(t *testing.T) {
	s := NewSeries("")
	s.IncIn(false, 0)
	s.AddMatch(false, 8, 1)
	out := s.Snapshot().String()
	for _, part := range []string{"in=1", "matches=1", "p99=8"} {
		if !strings.Contains(out, part) {
			t.Errorf("String() = %q missing %q", out, part)
		}
	}
}

// TestSnapshotCarried checks that a series counts the work of the series it
// carries, transitively, in Snapshot, /varz and /metrics alike, and that
// Carry is get-or-create.
func TestSnapshotCarried(t *testing.T) {
	r := NewRegistry()
	outer := r.Series("kslack")
	mid := outer.Carry()
	if outer.Carry() != mid {
		t.Fatal("Carry must get-or-create")
	}
	inner := mid.Carry()
	outer.Irrelevant.Inc()
	mid.ObservePurge(4)
	inner.ObservePurge(6)
	inner.IncPredError(nil)
	inner.EventsIn.Inc() // not carried: the outer layer admits its own events

	m := outer.Snapshot()
	if m.Irrelevant != 1 || m.Purged != 10 || m.PurgeCalls != 2 || m.PredErrors != 1 || m.EventsIn != 0 {
		t.Fatalf("snapshot %+v", m)
	}
	v := r.Varz()["engines"].(map[string]any)["kslack"].(map[string]any)
	if v["purged"] != uint64(10) || v["pred_errors"] != uint64(1) || v["events_in"] != uint64(0) {
		t.Fatalf("varz %v", v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `oostream_purged_total{engine="kslack"} 10`) {
		t.Fatalf("prometheus misses the carried purges\n%s", b.String())
	}
}

// TestQuantileNearestRank pins the one quantile convention: the
// ceil(q·n)-th smallest observation. Of 148 zeros and two 100s the 99th
// percentile is rank 149, a 100.
func TestQuantileNearestRank(t *testing.T) {
	s := NewSeries("")
	for i := 0; i < 148; i++ {
		s.AddMatch(false, 0, 0)
	}
	s.AddMatch(false, 100, 0)
	s.AddMatch(false, 100, 0)
	if got := s.Snapshot().LogicalLat.Quantile(0.99); got != 100 {
		t.Fatalf("p99 of 148×0 + 2×100 = %d, want 100", got)
	}
	if got := s.LogicalLat.View().Quantile(0.98); got != 0 {
		t.Fatalf("p98 = %d, want 0 (rank 147)", got)
	}
}

func TestHistViewBasics(t *testing.T) {
	var h Hist
	if v := h.View(); v.Mean() != 0 || v.Quantile(0.5) != 0 || v.Max != 0 {
		t.Error("empty histogram should be all zeros")
	}
	for _, x := range []uint64{0, 1, 2, 3, 100} {
		h.Observe(x)
	}
	v := h.View()
	if q := v.Quantile(1.0); q != 100 {
		t.Errorf("Quantile(1.0) = %d, want max", q)
	}
	if q := v.Quantile(0.2); q != 0 {
		t.Errorf("Quantile(0.2) = %d, want 0", q)
	}
	if v.Quantile(-1) != 0 {
		t.Error("negative q should clamp to the first observation's bucket")
	}
	if v.Quantile(2) != 100 {
		t.Error("q>1 should clamp to max")
	}
}

func TestQuantileIsNearestRankProperty(t *testing.T) {
	f := func(values []uint16, qRaw uint8) bool {
		if len(values) == 0 {
			return true
		}
		var h Hist
		for _, v := range values {
			h.Observe(uint64(v))
		}
		v := h.View()
		q := float64(qRaw%101) / 100
		bound := v.Quantile(q)
		// At least ceil(q·n) observations are <= the bound, and the bound's
		// bucket holds that rank: fewer than ceil(q·n) lie in lower buckets.
		need := max(int(math.Ceil(q*float64(len(values)))), 1)
		atMost, below := 0, 0
		for _, x := range values {
			if uint64(x) <= bound {
				atMost++
			}
			if bits.Len64(uint64(x)) < bits.Len64(bound) {
				below++
			}
		}
		return atMost >= need && below < need && bound <= v.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotConcurrent(t *testing.T) {
	s := NewSeries("")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Snapshot()
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		s.IncIn(i%2 == 0, 1)
		s.AddMatch(false, int64(i), uint64(i))
		s.LiveState.Set(int64(i))
	}
	close(stop)
	wg.Wait()
	m := s.Snapshot()
	if m.EventsIn != 1000 || m.Matches != 1000 || m.PeakState != 999 {
		t.Errorf("final snapshot: %+v", m)
	}
}
