// Package obsv is the live observability layer: the one instrument set
// every engine publishes into, and the trace-hook plumbing the flight
// recorder and external tracers attach to.
//
// The design splits responsibilities three ways:
//
//   - Counter, Gauge, and Hist are single-word atomic instruments. Engines
//     are single-writer on the hot path, so publication is one uncontended
//     atomic add per signal; readers (HTTP scrapes, monitors, tests) load
//     the same words without stopping the writer. No mutex is taken on
//     either side.
//   - Series groups the instruments of one engine instance under a name
//     ("native", "qs/q1", "supervised(native)"); an engine layer holds the
//     series it was built with in its engine.Tap, whose lifecycle steps
//     move the step counters, and publishes the rest into its fields.
//   - One instrument table (instruments.go) names every Series field for
//     each of its readers: Series.Snapshot (what an engine's Metrics
//     returns), and the Registry's Prometheus text and JSON /varz, so the
//     three cannot disagree.
//
// Trace hooks (trace.go) are the event-granular complement: a TraceHook
// receives one TraceEvent per lifecycle step (admit, drop, push, repair,
// trigger, emit, retract, purge, checkpoint), which a layer
// reports through its engine.Tap together with the step's counters.
package obsv

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"oostream/internal/event"
)

// Counter is a monotone atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that also tracks its peak.
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// Set records the current value and raises the peak if exceeded.
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Peak returns the largest value ever Set.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// NumBuckets is the bucket count of the power-of-two layout: one per bit
// length of a uint64, 0 through 64.
const NumBuckets = 65

// Hist is an atomic fixed-bucket histogram of uint64 observations. Bucket
// i counts values whose bit length is i (bucket 0: the value 0), so bucket
// i's inclusive upper bound is 2^i − 1.
type Hist struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// HistView is a point-in-time copy of a Hist. Loads are individually
// atomic, not mutually consistent — a scrape racing the writer can be off
// by the in-flight observation, which monitoring tolerates by design.
type HistView struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// View copies the histogram.
func (h *Hist) View() HistView {
	var v HistView
	for i := range h.buckets {
		v.Buckets[i] = h.buckets[i].Load()
	}
	v.Count = h.count.Load()
	v.Sum = h.sum.Load()
	v.Max = h.max.Load()
	return v
}

// Mean returns the average observation, or 0 with none.
func (v HistView) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return float64(v.Sum) / float64(v.Count)
}

// Quantile returns the q-quantile (0..1) of the observations by nearest
// rank — the ceil(q·n)-th smallest — as the upper bound of the bucket
// holding it, clamped to the observed max. Returns 0 with none.
func (v HistView) Quantile(q float64) uint64 {
	if v.Count == 0 {
		return 0
	}
	if q >= 1 {
		return v.Max
	}
	if q < 0 {
		q = 0
	}
	target := max(uint64(math.Ceil(q*float64(v.Count))), 1)
	var cum uint64
	for i := range v.Buckets {
		cum += v.Buckets[i]
		if cum >= target {
			// Bucket i holds values of bit length i: upper bound 2^i − 1.
			// At i=64 the shift wraps to 0 and the subtraction yields
			// MaxUint64 — exactly bucket 64's true upper bound.
			return min(uint64(1)<<uint(i)-1, v.Max)
		}
	}
	return v.Max
}

// Series is the named instrument set one engine instance publishes into;
// Snapshot documents what each instrument counts. WatermarkLag is, per
// admitted event, how far (logical ms) its timestamp lags the engine's
// watermark (max timestamp seen) — the measured disorder that adaptive K
// selection needs.
type Series struct {
	name string
	// carried is the private series of an inner layer whose work this
	// series counts as its own (see Carry).
	carried atomic.Pointer[Series]
	// inner marks a series Carry made: only its carried rows are read.
	inner bool

	EventsIn    Counter
	EventsOOO   Counter
	EventsLate  Counter
	Irrelevant  Counter
	Matches     Counter
	Retractions Counter
	PredErrors  Counter
	Purged      Counter
	PurgeCalls  Counter
	Probes      Counter
	EmptyProbes Counter
	Repairs     Counter

	DuplicatesSuppressed Counter
	Checkpoints          Counter
	LineageRecords       Counter
	SheddedEvents        Counter
	Switches             Counter

	AggWindows    Counter
	AggRevisions  Counter
	AggInserts    Counter
	AggFingerHits Counter

	LiveState          Gauge
	KeyGroups          Gauge
	CheckpointBytes    Gauge
	CheckpointDuration Gauge // nanoseconds
	LineageLive        Gauge
	LineageBytes       Gauge
	CurrentK           Gauge
	Degraded           Gauge // 1 while overload degradation is active
	AggTreeHeight      Gauge
	AggElements        Gauge

	LogicalLat   Hist
	ArrivalLat   Hist
	WatermarkLag Hist

	// Wall-clock latency attribution (latency.go). WallLat is end-to-end
	// wall latency (µs) of sampled spans; StageLat decomposes it by
	// pipeline stage. SpansSampled/SpansAbandoned/SpansDropped account the
	// sampler's span lifecycle.
	WallLat        Hist
	StageLat       [NumStages]Hist
	SpansSampled   Counter
	SpansAbandoned Counter
	SpansDropped   Counter
}

// NewSeries creates an unregistered series (what an engine built without a
// registry-owned one publishes into).
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name ("" for unregistered private series).
func (s *Series) Name() string { return s.name }

// Carry returns the private series an inner layer publishes into when the
// layer holding s consumes its output but not its work: the kernel behind a
// reorder buffer, the strategy beneath an aggregation operator. Its carried
// rows — Irrelevant, EventsLate, PredErrors, Purged and PurgeCalls — (and
// those of what it carries in turn) count as s's own in Snapshot, /varz and
// /metrics, and nothing reads its other rows, so a layer publishing into it
// skips them (Inner). Get-or-create, so an inner layer rebuilt under s (a
// supervised engine reopened on the same registry) continues the same
// counts.
func (s *Series) Carry() *Series {
	if c := s.carried.Load(); c != nil {
		return c
	}
	s.carried.CompareAndSwap(nil, &Series{inner: true})
	return s.carried.Load()
}

// Inner reports that s came from Carry and nothing reads its rows but the
// carried ones: a layer publishing into it writes no other row.
func (s *Series) Inner() bool { return s.inner }

// CountAll makes a carried series count every row, for a layer that reads
// more of it than what carries it does: the hybrid switch's decision
// windows. Call it before the layer publishing into s is built.
func (s *Series) CountAll() { s.inner = false }

// IncPredError counts a predicate evaluation error (treated as non-match);
// its signature is the callback the evaluators take.
func (s *Series) IncPredError(error) { s.PredErrors.Inc() }

// SetLineage gauges the lineage records an engine retains and their
// estimated heap footprint.
func (s *Series) SetLineage(live, bytes int) {
	s.LineageLive.Set(int64(live))
	s.LineageBytes.Set(int64(bytes))
}

// SetBound gauges the effective disorder bound being enforced and whether
// overload degradation is shedding.
func (s *Series) SetBound(k event.Time, degraded bool) {
	s.CurrentK.Set(k)
	var d int64
	if degraded {
		d = 1
	}
	s.Degraded.Set(d)
}

// Registry names and serves the Series of one process. All methods are
// safe for concurrent use; registration locks, publication never does.
type Registry struct {
	mu    sync.RWMutex
	named map[string]*Series
	order []string
	varz  map[string]func() any
	prom  []func(io.Writer) error
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		named: make(map[string]*Series),
		varz:  make(map[string]func() any),
	}
}

// Series returns the series registered under name, creating it on first
// use (get-or-create: a rebuilt engine resolves the same name safely).
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.named[name]; ok {
		return s
	}
	s := NewSeries(name)
	r.named[name] = s
	r.order = append(r.order, name)
	return s
}

// NewSeries registers a fresh series under prefix, uniquifying with a
// "#n" suffix when the name is taken — engine constructors use it so two
// engines of the same strategy never share counters.
func (r *Registry) NewSeries(prefix string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := prefix
	for n := 2; ; n++ {
		if _, taken := r.named[name]; !taken {
			break
		}
		name = fmt.Sprintf("%s#%d", prefix, n)
	}
	s := NewSeries(name)
	r.named[name] = s
	r.order = append(r.order, name)
	return s
}

// Each calls f for every registered series, in registration order.
func (r *Registry) Each(f func(*Series)) {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	r.mu.RUnlock()
	for _, n := range names {
		r.mu.RLock()
		s := r.named[n]
		r.mu.RUnlock()
		if s != nil {
			f(s)
		}
	}
}

// Names returns the registered series names, in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// RegisterVarz attaches a named snapshot provider to the /varz JSON
// document (process-level state that is not an engine counter: soak
// progress, checkpoint topology, build info).
func (r *Registry) RegisterVarz(name string, fn func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.varz[name] = fn
}

// RegisterPrometheus appends an extra exposition block to WritePrometheus
// output — metric families that are not per-series instruments (the SLO
// burn-rate windows, for example).
func (r *Registry) RegisterPrometheus(fn func(io.Writer) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prom = append(r.prom, fn)
}

// Varz returns the JSON-ready snapshot document: one entry per series
// (counter map) plus every registered provider's value.
func (r *Registry) Varz() map[string]any {
	doc := make(map[string]any)
	engines := make(map[string]any)
	r.Each(func(s *Series) {
		engines[s.Name()] = s.varz()
	})
	doc["engines"] = engines
	r.mu.RLock()
	names := make([]string, 0, len(r.varz))
	for n := range r.varz {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		r.mu.RLock()
		fn := r.varz[n]
		r.mu.RUnlock()
		doc[n] = fn()
	}
	return doc
}

// writePromHist renders one histogram in cumulative le-bucket form. The
// power-of-two layout maps bucket i to le = 2^i − 1; empty high buckets
// past the max observation collapse into +Inf. stage, when non-empty,
// adds a stage label (the per-stage wall-latency family).
//
// Edge cases this guards deliberately (see obsv_test.go):
//   - an empty histogram renders one le="0" bucket and zero counts —
//     still a well-formed family, never skipped mid-series;
//   - the max bucket (bit length 64) relies on Go shift semantics:
//     1<<64 on uint64 is 0, so le = 0−1 = MaxUint64 — exactly bucket
//     64's true inclusive upper bound, not an accident to "fix";
//   - the +Inf cumulative count must agree with _count, but a scrape
//     racing the writer can observe a bucket increment before the count
//     increment; render the max of the two so cumulative buckets are
//     monotone as Prometheus requires.
func writePromHist(w io.Writer, metric, engine, stage string, v HistView) error {
	labels := fmt.Sprintf("engine=%q", engine)
	if stage != "" {
		labels = fmt.Sprintf("engine=%q,stage=%q", engine, stage)
	}
	top := bits.Len64(v.Max)
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += v.Buckets[i]
		le := uint64(1)<<uint(i) - 1
		if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"%d\"} %d\n", metric, labels, le, cum); err != nil {
			return err
		}
	}
	inf := v.Count
	if cum > inf {
		inf = cum
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", metric, labels, inf); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum{%s} %d\n", metric, labels, v.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count{%s} %d\n", metric, labels, inf)
	return err
}
