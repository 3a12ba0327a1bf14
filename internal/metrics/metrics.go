// Package metrics collects the measurements the paper's evaluation reports:
// CPU cost (throughput is derived by the harness from wall time), memory
// consumption (live and peak instance counts), result latency (in logical
// time and in arrival distance), output counts, and correctness counters.
//
// A Collector is owned by one engine instance and is a thin veneer over the
// obsv.Series it was built over — the atomic instrument set of the live
// observability layer: a registry-owned series (named, scrapeable on
// /metrics and /varz) or a private one. Engines are single-writer, so every
// publication is one uncontended atomic operation; Snapshot loads the same
// words from any goroutine without stopping the writer (no mutex on either
// side).
package metrics

import (
	"fmt"
	"math/bits"
	"time"

	"oostream/internal/event"
	"oostream/internal/obsv"
)

// Collector accumulates engine measurements into the series it was built
// over; use NewCollector (the zero value has no series).
type Collector struct {
	s *obsv.Series
}

// NewCollector builds a collector publishing into s — typically a series
// obtained from an obsv.Registry, so scrapes see the engine live. A nil s
// gets a private, unregistered series.
func NewCollector(s *obsv.Series) Collector {
	if s == nil {
		s = obsv.NewSeries("")
	}
	return Collector{s: s}
}

// Snapshot is a consistent-enough copy of all counters: each field is
// loaded atomically; a snapshot racing the writer may be off by the
// in-flight event, which every consumer (harness, monitors) tolerates.
type Snapshot struct {
	EventsIn    uint64
	EventsLate  uint64
	EventsOOO   uint64
	Irrelevant  uint64
	Matches     uint64
	Retractions uint64
	PredErrors  uint64
	Purged      uint64
	PurgeCalls  uint64
	Probes      uint64
	EmptyProbes uint64
	// Repairs counts predecessor (RIP) pointer repairs caused by
	// out-of-order insertions — the structural work disorder forces.
	Repairs   uint64
	LiveState int
	PeakState int
	// KeyGroups and PeakKeyGroups gauge the live/peak number of key groups
	// when the engine runs with key-partitioned stacks (0 when unkeyed).
	KeyGroups     int
	PeakKeyGroups int
	LogicalLat    Histogram
	ArrivalLat    Histogram
	// WatermarkLag is the per-event lag behind the watermark (the max
	// timestamp seen): 0 for in-order arrivals, the measured disorder for
	// out-of-order ones. Its quantiles are what adaptive K selection reads.
	WatermarkLag Histogram

	// EventsDropped counts events the admission-control layer rejected
	// under the Drop policy (bound violators and duplicates).
	EventsDropped uint64
	// EventsDeadLettered counts events routed to the dead-letter channel.
	EventsDeadLettered uint64
	// DuplicatesSuppressed counts duplicate work suppressed by the
	// fault-tolerance layer: duplicate input events turned away at
	// admission plus replayed match emissions that had already been
	// delivered before a crash.
	DuplicatesSuppressed uint64
	// Restarts counts supervised restarts from a checkpoint after a panic.
	Restarts uint64
	// Checkpoints counts durable checkpoints written.
	Checkpoints uint64
	// CheckpointBytes gauges the size of the most recent checkpoint.
	CheckpointBytes uint64
	// CheckpointDuration gauges the wall time of the most recent checkpoint.
	CheckpointDuration time.Duration

	// LineageRecords counts lineage records built (provenance enabled).
	LineageRecords uint64
	// LineageLive gauges lineage records currently retained (attached to
	// pending matches awaiting negation sealing).
	LineageLive int
	// LineageBytes gauges the estimated heap retained by live records.
	LineageBytes int

	// SheddedEvents counts events discarded by overload degradation (the
	// Limits policy) — distinct from EventsLate (bound violators).
	SheddedEvents uint64
	// Switches counts hybrid meta-engine strategy switches.
	Switches uint64
	// CurrentK gauges the effective disorder bound being enforced; MaxK is
	// its peak (the static K the adaptive run is equivalent to).
	CurrentK int64
	MaxK     int64
	// Degraded reports whether overload degradation is active.
	Degraded bool

	// AggWindows counts emitted aggregate window values; AggRevisions the
	// speculative retract+insert pairs that replaced an earlier value.
	AggWindows   uint64
	AggRevisions uint64
	// AggInserts counts elements inserted into the aggregation operator's
	// sorted runs and AggFingerHits the subset appended at a run's tail (in
	// timestamp order: no search, no shift), so AggFingerHits/AggInserts is
	// the in-order share of inner matches. The names date from the finger
	// tree the runs replaced and are kept for what reads them.
	AggInserts    uint64
	AggFingerHits uint64
	// AggTreeHeight is 1 while any aggregation element is live and 0
	// otherwise (a run has no levels); AggElements the live elements across
	// all groups.
	AggTreeHeight int
	AggElements   int
}

// IncIn counts an ingested event; ooo marks it out of timestamp order and
// lag is its distance behind the watermark (max timestamp seen; 0 for
// in-order arrivals).
func (c *Collector) IncIn(ooo bool, lag event.Time) {
	s := c.s
	s.EventsIn.Inc()
	if ooo {
		s.EventsOOO.Inc()
	}
	if lag < 0 {
		lag = 0
	}
	s.WatermarkLag.Observe(uint64(lag))
}

// IncLate counts an event rejected for violating the disorder bound.
func (c *Collector) IncLate() { c.s.EventsLate.Inc() }

// IncIrrelevant counts an event whose type the pattern does not mention.
func (c *Collector) IncIrrelevant() { c.s.Irrelevant.Inc() }

// IncPredError counts a predicate evaluation error (treated as non-match).
func (c *Collector) IncPredError(error) { c.s.PredErrors.Inc() }

// AddPredErrors counts n predicate errors at once (a restore carrying over
// the count a checkpoint recorded).
func (c *Collector) AddPredErrors(n uint64) { c.s.PredErrors.Add(n) }

// AddMatch records an emitted match with its latencies: logical is
// emission clock minus the match's last event timestamp; arrival is the
// number of arrivals between the match's completion and its emission.
func (c *Collector) AddMatch(retract bool, logical event.Time, arrival uint64) {
	s := c.s
	if retract {
		s.Retractions.Inc()
		return
	}
	s.Matches.Inc()
	if logical < 0 {
		logical = 0
	}
	s.LogicalLat.Observe(uint64(logical))
	s.ArrivalLat.Observe(arrival)
}

// ObserveProbe records a construction probe; empty marks one that
// enumerated no match (the waste the scan optimization avoids).
func (c *Collector) ObserveProbe(empty bool) {
	s := c.s
	s.Probes.Inc()
	if empty {
		s.EmptyProbes.Inc()
	}
}

// ObservePurge records a purge pass that removed n instances.
func (c *Collector) ObservePurge(n int) {
	s := c.s
	s.PurgeCalls.Inc()
	s.Purged.Add(uint64(n))
}

// AddRepairs records n predecessor-pointer repairs from one insertion.
func (c *Collector) AddRepairs(n int) {
	if n > 0 {
		c.s.Repairs.Add(uint64(n))
	}
}

// SetLiveState records the current total state size (stack instances plus
// any auxiliary buffers) and updates the peak.
func (c *Collector) SetLiveState(n int) { c.s.LiveState.Set(int64(n)) }

// SetKeyGroups records the current number of key-partitioned stack groups
// and updates the peak.
func (c *Collector) SetKeyGroups(n int) { c.s.KeyGroups.Set(int64(n)) }

// IncDropped counts an event rejected by admission control (Drop policy).
func (c *Collector) IncDropped() { c.s.Dropped.Inc() }

// IncDeadLettered counts an event routed to the dead-letter channel.
func (c *Collector) IncDeadLettered() { c.s.DeadLettered.Inc() }

// IncDupSuppressed counts one suppressed duplicate: a duplicate input
// event turned away at admission, or a replayed match emission that was
// already delivered before a crash.
func (c *Collector) IncDupSuppressed() { c.s.DupSuppressed.Inc() }

// IncRestart counts a supervised restart from a checkpoint.
func (c *Collector) IncRestart() { c.s.Restarts.Inc() }

// ObserveCheckpoint records a completed durable checkpoint: its size and
// how long writing it took.
func (c *Collector) ObserveCheckpoint(bytes int, d time.Duration) {
	s := c.s
	s.Checkpoints.Inc()
	s.CheckpointBytes.Set(int64(bytes))
	s.CheckpointNanos.Set(int64(d))
}

// IncShedded counts one event discarded by overload degradation.
func (c *Collector) IncShedded() { c.s.SheddedEvents.Inc() }

// IncSwitch counts one hybrid strategy switch.
func (c *Collector) IncSwitch() { c.s.Switches.Inc() }

// SetCurrentK gauges the effective disorder bound being enforced.
func (c *Collector) SetCurrentK(k event.Time) { c.s.CurrentK.Set(int64(k)) }

// SetDegraded gauges the overload-degradation flag.
func (c *Collector) SetDegraded(on bool) {
	var v int64
	if on {
		v = 1
	}
	c.s.Degraded.Set(v)
}

// IncLineage counts one lineage record built by the provenance layer.
func (c *Collector) IncLineage() { c.s.LineageRecords.Inc() }

// SetLineageRetained gauges the lineage records currently retained by the
// engine and their estimated heap footprint.
func (c *Collector) SetLineageRetained(live, bytes int) {
	s := c.s
	s.LineageLive.Set(int64(live))
	s.LineageBytes.Set(int64(bytes))
}

// IncAggWindow counts one emitted aggregate window value.
func (c *Collector) IncAggWindow() { c.s.AggWindows.Inc() }

// IncAggRevision counts one speculative aggregate revision (a
// retract+insert pair replacing a previously emitted window value).
func (c *Collector) IncAggRevision() { c.s.AggRevisions.Inc() }

// IncAggInsert counts one aggregation element insert; appended marks it as
// landing at the tail of its group's run (counted as AggFingerHits).
func (c *Collector) IncAggInsert(appended bool) {
	s := c.s
	s.AggInserts.Inc()
	if appended {
		s.AggFingerHits.Inc()
	}
}

// SetAggTree gauges the aggregation state: height is 1 while anything is
// live, elements the total live elements.
func (c *Collector) SetAggTree(height, elements int) {
	s := c.s
	s.AggTreeHeight.Set(int64(height))
	s.AggElements.Set(int64(elements))
}

// Snapshot returns a copy of all counters.
func (c *Collector) Snapshot() Snapshot {
	s := c.s
	return Snapshot{
		EventsIn:      s.EventsIn.Load(),
		EventsLate:    s.EventsLate.Load(),
		EventsOOO:     s.EventsOOO.Load(),
		Irrelevant:    s.Irrelevant.Load(),
		Matches:       s.Matches.Load(),
		Retractions:   s.Retractions.Load(),
		PredErrors:    s.PredErrors.Load(),
		Purged:        s.Purged.Load(),
		PurgeCalls:    s.PurgeCalls.Load(),
		Probes:        s.Probes.Load(),
		EmptyProbes:   s.EmptyProbes.Load(),
		Repairs:       s.Repairs.Load(),
		LiveState:     int(s.LiveState.Load()),
		PeakState:     int(s.LiveState.Peak()),
		KeyGroups:     int(s.KeyGroups.Load()),
		PeakKeyGroups: int(s.KeyGroups.Peak()),
		LogicalLat:    histFromView(s.LogicalLat.View()),
		ArrivalLat:    histFromView(s.ArrivalLat.View()),
		WatermarkLag:  histFromView(s.WatermarkLag.View()),

		EventsDropped:        s.Dropped.Load(),
		EventsDeadLettered:   s.DeadLettered.Load(),
		DuplicatesSuppressed: s.DupSuppressed.Load(),
		Restarts:             s.Restarts.Load(),
		Checkpoints:          s.Checkpoints.Load(),
		CheckpointBytes:      uint64(s.CheckpointBytes.Load()),
		CheckpointDuration:   time.Duration(s.CheckpointNanos.Load()),

		LineageRecords: s.LineageRecords.Load(),
		LineageLive:    int(s.LineageLive.Load()),
		LineageBytes:   int(s.LineageBytes.Load()),

		SheddedEvents: s.SheddedEvents.Load(),
		Switches:      s.Switches.Load(),
		CurrentK:      s.CurrentK.Load(),
		MaxK:          s.CurrentK.Peak(),
		Degraded:      s.Degraded.Load() != 0,

		AggWindows:    s.AggWindows.Load(),
		AggRevisions:  s.AggRevisions.Load(),
		AggInserts:    s.AggInserts.Load(),
		AggFingerHits: s.AggFingerHits.Load(),
		AggTreeHeight: int(s.AggTreeHeight.Load()),
		AggElements:   int(s.AggElements.Load()),
	}
}

// String summarizes the snapshot on one line.
func (s Snapshot) String() string {
	return fmt.Sprintf("in=%d ooo=%d late=%d matches=%d retract=%d peak=%d lat(mean=%.1f p99=%d)",
		s.EventsIn, s.EventsOOO, s.EventsLate, s.Matches, s.Retractions,
		s.PeakState, s.LogicalLat.Mean(), s.LogicalLat.Quantile(0.99))
}

// Histogram is a fixed power-of-two-bucket histogram of uint64 observations.
// Bucket i counts values whose bit length is i (bucket 0: value 0). It is a
// value type: copying it snapshots it.
type Histogram struct {
	buckets [65]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// histFromView converts an atomic obsv histogram view into the snapshot
// value type (identical bucket layout).
func histFromView(v obsv.HistView) Histogram {
	return Histogram{buckets: v.Buckets, count: v.Count, sum: v.Sum, max: v.Max}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observations.
func (h Histogram) Sum() uint64 { return h.sum }

// Max returns the largest observation.
func (h Histogram) Max() uint64 { return h.max }

// Mean returns the average observation, or 0 with no observations.
func (h Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper edge of the bucket containing it. Returns 0 with no observations.
func (h Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			upper := uint64(1)<<uint(i) - 1
			if upper > h.max {
				upper = h.max
			}
			return upper
		}
	}
	return h.max
}
