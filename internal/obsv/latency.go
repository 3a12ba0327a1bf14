// Wall-clock latency attribution: a sampled span pipeline decomposing the
// real (wall-clock) path an event takes through the engine into stage
// durations, complementing the logical instruments (result latency,
// watermark lag) that measure stream time.
//
// The design is built around three constraints:
//
//   - Zero cost when off. A nil *LatencySampler is a valid receiver for
//     every method; each call site pays one predictable nil-check branch
//     and allocates nothing. Call sites are therefore unconditional —
//     there is a single code path whether sampling is on or off, which is
//     what makes the on/off differential (identical match output) hold
//     structurally rather than by luck.
//   - Deterministic sampling. Whether an event is sampled is a pure
//     function of its Seq (seq & mask == 0 with SampleEvery rounded up to
//     a power of two), never of time or randomness, so two runs over the
//     same stream sample the same events and the decision cannot perturb
//     engine behavior.
//   - Allocation-free spans. Live spans occupy a fixed open-addressed
//     slot table keyed by Seq; when the table is full the span is counted
//     dropped and the event proceeds unmeasured. All slot fields are
//     atomics: scrapes race writers by design.
//
// # Span protocol
//
//	Begin(seq)            first-wins: claims a slot at ingest (outermost
//	                      layer wins; inner Begins on a live seq are no-ops)
//	StageEnd(seq, stage)  folds (now − last) into the stage histogram and
//	                      advances last; a stage may be stamped repeatedly
//	                      (WAL append + commit) — the sum is preserved
//	Hold(seq)             marks the span as buffered (kslack residency,
//	                      shared-admission buffer): the outer Finish
//	                      becomes a no-op so a still-buffered span is not
//	                      closed early
//	Finish(seq)           unless held: folds the tail into StageEmit,
//	                      observes end-to-end wall latency, feeds the SLO
//	                      tracker, frees the slot
//	FinishHeld(seq)       Finish that ignores the held bit — called by the
//	                      buffering layer when it releases the event
//	Abandon(seq)          frees the slot without observing (dropped, shed,
//	                      or admission-rejected events must not pollute
//	                      the wall histogram)
//
// Because Finish folds the residual tail into StageEmit, the stage sums
// equal the end-to-end wall time exactly (up to integer-microsecond
// truncation per stage): attribution is an accounting identity, not an
// approximation.
package obsv

import (
	"sync/atomic"
	"time"
)

// Stage names one segment of a sampled event's wall-clock journey.
type Stage uint8

// Stages, in pipeline order.
const (
	// StageBuffer is reorder-buffer residency: kslack/adaptive buffering or
	// the QuerySet shared-admission buffer, from admission to release.
	StageBuffer Stage = iota
	// StageWAL is durability work in the supervised runtime: write-ahead
	// append plus commit recording.
	StageWAL
	// StageConstruct is strategy-engine processing: admission checks, stack
	// insertion, match construction and sealing.
	StageConstruct
	// StageEmit is everything after construction until the span closes:
	// delivery and downstream channel backpressure. It is the
	// residual tail folded in at Finish, which is what makes the stage sum
	// equal the wall total.
	StageEmit
	// NumStages sizes per-stage arrays.
	NumStages
)

var stageNames = [NumStages]string{"buffer", "wal", "construct", "emit"}

// String returns the stage's label ("buffer", "wal", "construct", "emit").
func (st Stage) String() string {
	if st < NumStages {
		return stageNames[st]
	}
	return "unknown"
}

// baseTime anchors nowNanos: time.Since reads the monotonic clock and a
// duration-since-base fits int64 for centuries, with no allocation.
var baseTime = time.Now()

// nowNanos is the span clock: monotonic nanoseconds since process start.
// A variable so tests can substitute a fake clock.
var nowNanos = func() int64 { return int64(time.Since(baseTime)) }

// Slot-table geometry. 1024 live sampled spans is far above any real
// in-flight population (spans live for one event's pipeline transit);
// probeLen bounds the collision scan so lookup cost is constant.
const (
	slotCount = 1024
	probeLen  = 8
)

// latencySlot is one live span. key is the event's Seq+1 (0 = free); all
// fields are atomics, so Begin, StageEnd and Finish may come from
// different goroutines.
type latencySlot struct {
	key   atomic.Uint64
	start atomic.Int64
	last  atomic.Int64
	held  atomic.Uint32
}

// LatencySampler owns the span slot table and publishes stage and wall
// histograms into a Series (plus an optional SLO tracker). All methods are
// safe on a nil receiver and cost one branch there.
type LatencySampler struct {
	mask   uint64 // sampling mask: seq&mask==0 => sampled
	every  int    // rounded SampleEvery, for reports
	series *Series
	slo    *SLOTracker
	slots  [slotCount]latencySlot
}

// NewLatencySampler builds a sampler observing roughly 1 in every 'every'
// events (rounded up to a power of two so the decision is a mask test)
// into the series' WallLat/StageLat instruments. slo may be nil.
func NewLatencySampler(every int, series *Series, slo *SLOTracker) *LatencySampler {
	if every < 1 {
		every = 1
	}
	pow := 1
	for pow < every {
		pow <<= 1
	}
	if series == nil {
		series = NewSeries("")
	}
	return &LatencySampler{mask: uint64(pow - 1), every: pow, series: series, slo: slo}
}

// SampleEvery returns the effective (power-of-two) sampling interval.
func (ls *LatencySampler) SampleEvery() int {
	if ls == nil {
		return 0
	}
	return ls.every
}

// Series returns the series the sampler publishes into.
func (ls *LatencySampler) Series() *Series {
	if ls == nil {
		return nil
	}
	return ls.series
}

// SLO returns the sampler's SLO tracker (nil when untracked).
func (ls *LatencySampler) SLO() *SLOTracker {
	if ls == nil {
		return nil
	}
	return ls.slo
}

// Sampled reports whether seq is in the sample. Pure function of seq.
func (ls *LatencySampler) Sampled(seq uint64) bool {
	return ls != nil && seq&ls.mask == 0
}

// slotIndex spreads sampled seqs (multiples of the sampling interval)
// across the table with a Fibonacci multiplicative hash.
func slotIndex(seq uint64) uint64 {
	return (seq * 0x9E3779B97F4A7C15) >> 54 % slotCount
}

// find returns the live slot for seq, or nil.
func (ls *LatencySampler) find(seq uint64) *latencySlot {
	h := slotIndex(seq)
	for i := uint64(0); i < probeLen; i++ {
		s := &ls.slots[(h+i)%slotCount]
		if s.key.Load() == seq+1 {
			return s
		}
	}
	return nil
}

// Begin opens a span for seq at the current instant. First-wins: if a span
// for seq is already live the call is a no-op, so every layer can call it
// unconditionally and the outermost claim anchors the wall measurement.
func (ls *LatencySampler) Begin(seq uint64) {
	if ls == nil || seq&ls.mask != 0 {
		return
	}
	h := slotIndex(seq)
	var free *latencySlot
	for i := uint64(0); i < probeLen; i++ {
		s := &ls.slots[(h+i)%slotCount]
		k := s.key.Load()
		if k == seq+1 {
			return // already live: first Begin wins
		}
		if k == 0 && free == nil {
			free = s
		}
	}
	if free == nil || !free.key.CompareAndSwap(0, seq+1) {
		ls.series.SpansDropped.Inc()
		return
	}
	now := nowNanos()
	free.held.Store(0)
	free.start.Store(now)
	free.last.Store(now)
	ls.series.SpansSampled.Inc()
}

// StageEnd attributes the time since the span's previous stamp to stage
// and advances the stamp.
func (ls *LatencySampler) StageEnd(seq uint64, stage Stage) {
	if ls == nil || seq&ls.mask != 0 {
		return
	}
	s := ls.find(seq)
	if s == nil {
		return
	}
	now := nowNanos()
	prev := s.last.Swap(now)
	ls.series.StageLat[stage].Observe(uint64(now-prev) / 1_000)
}

// StageInto is StageEnd that additionally mirrors the observation into
// another series' stage histogram — per-query attribution in the QuerySet,
// where one shared span's construct time is split across the queries the
// event dispatched to. The duration still lands in the sampler's own
// series, so the wall = Σ stages accounting identity is unaffected; the
// extra series receives a per-query copy of its segment.
func (ls *LatencySampler) StageInto(series *Series, seq uint64, stage Stage) {
	if ls == nil || seq&ls.mask != 0 {
		return
	}
	s := ls.find(seq)
	if s == nil {
		return
	}
	now := nowNanos()
	prev := s.last.Swap(now)
	d := uint64(now-prev) / 1_000
	ls.series.StageLat[stage].Observe(d)
	if series != nil && series != ls.series {
		series.StageLat[stage].Observe(d)
	}
}

// Hold marks seq's span as buffered: the event was admitted into a
// reorder buffer and will be processed later, so the outer layer's
// unconditional Finish must not close the span.
func (ls *LatencySampler) Hold(seq uint64) {
	if ls == nil || seq&ls.mask != 0 {
		return
	}
	if s := ls.find(seq); s != nil {
		s.held.Store(1)
	}
}

// Finish closes seq's span unless it is held: the residual tail since the
// last stamp goes to StageEmit, the end-to-end wall time to WallLat and
// the SLO tracker, and the slot is freed.
func (ls *LatencySampler) Finish(seq uint64) {
	if ls == nil || seq&ls.mask != 0 {
		return
	}
	s := ls.find(seq)
	if s == nil || s.held.Load() != 0 {
		return
	}
	ls.finish(s)
}

// FinishHeld closes seq's span regardless of the held bit — the buffering
// layer calls it when it releases and finishes processing the event.
func (ls *LatencySampler) FinishHeld(seq uint64) {
	if ls == nil || seq&ls.mask != 0 {
		return
	}
	if s := ls.find(seq); s != nil {
		ls.finish(s)
	}
}

func (ls *LatencySampler) finish(s *latencySlot) {
	now := nowNanos()
	prev := s.last.Swap(now)
	ls.series.StageLat[StageEmit].Observe(uint64(now-prev) / 1_000)
	wall := now - s.start.Load()
	ls.series.WallLat.Observe(uint64(wall) / 1_000)
	ls.slo.Observe(wall)
	s.key.Store(0)
}

// Abandon frees seq's span without observing: dropped, shed, and
// admission-rejected events leave the pipeline early and must not skew
// the wall histogram.
func (ls *LatencySampler) Abandon(seq uint64) {
	if ls == nil || seq&ls.mask != 0 {
		return
	}
	s := ls.find(seq)
	if s == nil {
		return
	}
	s.key.Store(0)
	ls.series.SpansAbandoned.Inc()
}

// HistSummary is the JSON-ready digest of one histogram.
type HistSummary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"meanUs"`
	P50Us  uint64  `json:"p50Us"`
	P95Us  uint64  `json:"p95Us"`
	P99Us  uint64  `json:"p99Us"`
	MaxUs  uint64  `json:"maxUs"`
	SumUs  uint64  `json:"sumUs"`
}

func summarize(v HistView) HistSummary {
	return HistSummary{
		Count:  v.Count,
		MeanUs: v.Mean(),
		P50Us:  v.Quantile(0.50),
		P95Us:  v.Quantile(0.95),
		P99Us:  v.Quantile(0.99),
		MaxUs:  v.Max,
		SumUs:  v.Sum,
	}
}

// LatencyReport is the /debug/latency and StateSnapshot payload: the
// sampler's configuration, span accounting, the end-to-end wall histogram,
// the per-stage decomposition, and the SLO window state.
type LatencyReport struct {
	// SampleEvery is the effective sampling interval (1 in N, power of two).
	SampleEvery int `json:"sampleEvery"`
	// SpansSampled/SpansAbandoned/SpansDropped account every opened span:
	// completed (the wall histogram's count), abandoned (dropped/shed
	// events), or dropped at open because the slot table was full.
	SpansSampled   uint64 `json:"spansSampled"`
	SpansAbandoned uint64 `json:"spansAbandoned"`
	SpansDropped   uint64 `json:"spansDropped"`
	// Wall is the end-to-end wall-clock latency of completed spans (µs).
	Wall HistSummary `json:"wall"`
	// Stages decomposes Wall by pipeline stage; only stages that observed
	// at least one duration appear.
	Stages map[string]HistSummary `json:"stages,omitempty"`
	// SLO is the burn-rate tracker's window state, when configured.
	SLO *SLOSnapshot `json:"slo,omitempty"`
}

// Report digests the sampler's current state. Nil-safe: a nil sampler
// returns nil, which callers serialize as absent.
func (ls *LatencySampler) Report() *LatencyReport {
	if ls == nil {
		return nil
	}
	r := &LatencyReport{
		SampleEvery:    ls.every,
		SpansSampled:   ls.series.SpansSampled.Load(),
		SpansAbandoned: ls.series.SpansAbandoned.Load(),
		SpansDropped:   ls.series.SpansDropped.Load(),
		Wall:           summarize(ls.series.WallLat.View()),
	}
	for st := Stage(0); st < NumStages; st++ {
		v := ls.series.StageLat[st].View()
		if v.Count == 0 {
			continue
		}
		if r.Stages == nil {
			r.Stages = make(map[string]HistSummary, NumStages)
		}
		r.Stages[st.String()] = summarize(v)
	}
	if ls.slo != nil {
		r.SLO = ls.slo.Snapshot()
	}
	return r
}
