package metrics

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCollectorCounters(t *testing.T) {
	c := NewCollector(nil)
	c.IncIn(false, 0)
	c.IncIn(true, 3)
	c.IncIn(true, 3)
	c.IncLate()
	c.IncIrrelevant()
	c.IncPredError(errors.New("x"))
	c.AddMatch(false, 10, 2)
	c.AddMatch(false, 30, 4)
	c.AddMatch(true, 0, 0)
	c.ObservePurge(5)
	c.ObservePurge(3)
	c.SetLiveState(7)
	c.SetLiveState(3)

	s := c.Snapshot()
	if s.EventsIn != 3 || s.EventsOOO != 2 || s.EventsLate != 1 {
		t.Errorf("event counters: %+v", s)
	}
	if s.Irrelevant != 1 || s.PredErrors != 1 {
		t.Errorf("aux counters: %+v", s)
	}
	if s.Matches != 2 || s.Retractions != 1 {
		t.Errorf("match counters: %+v", s)
	}
	if s.Purged != 8 || s.PurgeCalls != 2 {
		t.Errorf("purge counters: %+v", s)
	}
	if s.LiveState != 3 || s.PeakState != 7 {
		t.Errorf("state counters: %+v", s)
	}
	if s.LogicalLat.Count() != 2 || s.LogicalLat.Sum() != 40 {
		t.Errorf("latency: count=%d sum=%d", s.LogicalLat.Count(), s.LogicalLat.Sum())
	}
	if s.LogicalLat.Mean() != 20 {
		t.Errorf("mean = %v", s.LogicalLat.Mean())
	}
}

func TestNegativeLatencyClamped(t *testing.T) {
	c := NewCollector(nil)
	c.AddMatch(false, -5, 0)
	s := c.Snapshot()
	if s.LogicalLat.Sum() != 0 || s.LogicalLat.Count() != 1 {
		t.Errorf("negative latency not clamped: %+v", s.LogicalLat)
	}
}

func TestSnapshotString(t *testing.T) {
	c := NewCollector(nil)
	c.IncIn(false, 0)
	c.AddMatch(false, 8, 1)
	out := c.Snapshot().String()
	for _, part := range []string{"in=1", "matches=1"} {
		if !strings.Contains(out, part) {
			t.Errorf("String() = %q missing %q", out, part)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Error("empty histogram should be all zeros")
	}
	for _, v := range []uint64{0, 1, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 106 || h.Max() != 100 {
		t.Errorf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if q := h.Quantile(1.0); q != 100 {
		t.Errorf("Quantile(1.0) = %d, want max", q)
	}
	if q := h.Quantile(0.2); q != 0 {
		t.Errorf("Quantile(0.2) = %d, want 0", q)
	}
	// Quantile clamps q.
	if h.Quantile(-1) != 0 {
		t.Error("negative q should clamp to min bucket")
	}
	if h.Quantile(2) != 100 {
		t.Error("q>1 should clamp to max")
	}
}

func TestHistogramQuantileIsUpperBoundProperty(t *testing.T) {
	f := func(values []uint16, qRaw uint8) bool {
		if len(values) == 0 {
			return true
		}
		var h Histogram
		for _, v := range values {
			h.Observe(uint64(v))
		}
		q := float64(qRaw%101) / 100
		bound := h.Quantile(q)
		// At least ceil(q*n) observations must be <= bound.
		need := int(q * float64(len(values)))
		if need == 0 {
			need = 1
		}
		got := 0
		for _, v := range values {
			if uint64(v) <= bound {
				got++
			}
		}
		return got >= need && bound <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorConcurrentSnapshot(t *testing.T) {
	c := NewCollector(nil)
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
				_ = c.Snapshot()
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		c.IncIn(i%2 == 0, 1)
		c.AddMatch(false, int64(i), uint64(i))
		c.SetLiveState(i)
	}
	close(stop)
	wg.Wait()
	s := c.Snapshot()
	if s.EventsIn != 1000 || s.Matches != 1000 || s.PeakState != 999 {
		t.Errorf("final snapshot: %+v", s)
	}
}
