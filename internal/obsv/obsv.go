// Package obsv is the live observability layer: a lock-cheap metrics
// registry every engine publishes into, and the trace-hook plumbing the
// flight recorder and external tracers attach to.
//
// The design splits responsibilities three ways:
//
//   - Counter, Gauge, and Hist are single-word atomic instruments. Engines
//     are single-writer on the hot path, so publication is one uncontended
//     atomic add per signal; readers (HTTP scrapes, monitors, tests) load
//     the same words without stopping the writer. No mutex is taken on
//     either side.
//   - Series groups the instruments of one engine instance under a name
//     ("native", "qs/q1", "supervised(native)"). internal/metrics.Collector
//     is a veneer over a Series, so building an engine's collector over a
//     registry-owned Series turns its counters into live, scrapeable time
//     series without touching call sites.
//   - Registry names and enumerates Series and renders them as
//     Prometheus text (see WritePrometheus) or a JSON /varz snapshot.
//
// Trace hooks (trace.go) are the event-granular complement: a TraceHook
// receives one TraceEvent per lifecycle step (admit, drop, push, repair,
// trigger, emit, retract, purge, checkpoint, restart) with a nil fast path
// — an unhooked engine pays one predictable branch per site.
package obsv

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
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

// Hist is an atomic fixed-bucket histogram of uint64 observations. Bucket
// i counts values whose bit length is i (bucket 0: the value 0), so bucket
// i's inclusive upper bound is 2^i − 1 — the same layout as
// internal/metrics.Histogram, which snapshots convert into.
type Hist struct {
	buckets [65]atomic.Uint64
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
	Buckets [65]uint64
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

// Series is the named instrument set one engine instance publishes into.
// Field meanings mirror internal/metrics.Snapshot; WatermarkLag is the new
// live signal: per admitted event, how far (logical ms) its timestamp lags
// the engine's watermark (max timestamp seen) — the measured disorder that
// adaptive K selection needs.
type Series struct {
	name string

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

	Dropped       Counter
	DeadLettered  Counter
	DupSuppressed Counter
	Restarts      Counter
	Checkpoints   Counter

	// LineageRecords counts lineage records built by the provenance layer;
	// LineageLive/LineageBytes gauge what is currently retained, so the
	// overhead of provenance is itself observable.
	LineageRecords Counter

	// SheddedEvents counts events discarded by overload degradation (the
	// Limits policy) — deliberately shed, distinct from EventsLate (bound
	// violators) and Dropped (admission control). Switches counts hybrid
	// meta-engine strategy switches.
	SheddedEvents Counter
	Switches      Counter

	// Windowed-aggregation instruments. AggWindows counts emitted window
	// values; AggRevisions counts speculative revisions (a retract+insert
	// pair replacing a previously emitted window value); AggInserts counts
	// elements inserted into the operator's sorted runs and AggFingerHits
	// the subset appended at a run's tail (the in-order fast path: no
	// search, no shift), so finger_hits/inserts is the live in-order share
	// of inner matches. The finger names predate the runs.
	AggWindows    Counter
	AggRevisions  Counter
	AggInserts    Counter
	AggFingerHits Counter

	LiveState       Gauge
	KeyGroups       Gauge
	CheckpointBytes Gauge
	CheckpointNanos Gauge
	LineageLive     Gauge
	LineageBytes    Gauge

	// CurrentK gauges the effective disorder bound the engine is enforcing
	// right now (the adaptive controller's output; constant for static K).
	// Degraded is 1 while overload degradation is active.
	CurrentK Gauge
	Degraded Gauge

	// AggTreeHeight is 1 while any aggregation element is live, 0 otherwise
	// (a run has no levels); AggElements gauges the live elements across all
	// groups.
	AggTreeHeight Gauge
	AggElements   Gauge

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

// varz renders one series as a flat map.
func (s *Series) varz() map[string]any {
	lag := s.WatermarkLag.View()
	lat := s.LogicalLat.View()
	wall := s.WallLat.View()
	return map[string]any{
		"events_in":             s.EventsIn.Load(),
		"events_ooo":            s.EventsOOO.Load(),
		"events_late":           s.EventsLate.Load(),
		"irrelevant":            s.Irrelevant.Load(),
		"matches":               s.Matches.Load(),
		"retractions":           s.Retractions.Load(),
		"pred_errors":           s.PredErrors.Load(),
		"purged":                s.Purged.Load(),
		"purge_calls":           s.PurgeCalls.Load(),
		"probes":                s.Probes.Load(),
		"empty_probes":          s.EmptyProbes.Load(),
		"repairs":               s.Repairs.Load(),
		"dropped":               s.Dropped.Load(),
		"dead_lettered":         s.DeadLettered.Load(),
		"dup_suppressed":        s.DupSuppressed.Load(),
		"restarts":              s.Restarts.Load(),
		"checkpoints":           s.Checkpoints.Load(),
		"checkpoint_bytes":      s.CheckpointBytes.Load(),
		"checkpoint_nanos":      s.CheckpointNanos.Load(),
		"state_live":            s.LiveState.Load(),
		"state_peak":            s.LiveState.Peak(),
		"key_groups":            s.KeyGroups.Load(),
		"key_groups_peak":       s.KeyGroups.Peak(),
		"lineage_records":       s.LineageRecords.Load(),
		"lineage_live":          s.LineageLive.Load(),
		"lineage_bytes":         s.LineageBytes.Load(),
		"shedded_events":        s.SheddedEvents.Load(),
		"hybrid_switches":       s.Switches.Load(),
		"agg_windows":           s.AggWindows.Load(),
		"agg_revisions":         s.AggRevisions.Load(),
		"agg_inserts":           s.AggInserts.Load(),
		"agg_finger_hits":       s.AggFingerHits.Load(),
		"agg_tree_height":       s.AggTreeHeight.Load(),
		"agg_elements":          s.AggElements.Load(),
		"current_k":             s.CurrentK.Load(),
		"max_k":                 s.CurrentK.Peak(),
		"degraded":              s.Degraded.Load(),
		"watermark_lag_mean_ms": lag.Mean(),
		"watermark_lag_max_ms":  lag.Max,
		"latency_mean_ms":       lat.Mean(),
		"latency_max_ms":        lat.Max,
		"spans_sampled":         s.SpansSampled.Load(),
		"spans_abandoned":       s.SpansAbandoned.Load(),
		"spans_dropped":         s.SpansDropped.Load(),
		"wall_latency_count":    wall.Count,
		"wall_latency_mean_us":  wall.Mean(),
		"wall_latency_p95_us":   wall.Quantile(0.95),
		"wall_latency_max_us":   wall.Max,
	}
}

// promCounters maps Prometheus metric names to series counters; the order
// is the rendering order.
var promCounters = []struct {
	metric string
	help   string
	load   func(*Series) uint64
}{
	{"oostream_events_in_total", "Pattern-relevant events ingested", func(s *Series) uint64 { return s.EventsIn.Load() }},
	{"oostream_events_ooo_total", "Events that arrived out of timestamp order (within the bound)", func(s *Series) uint64 { return s.EventsOOO.Load() }},
	{"oostream_events_late_total", "Events that violated the disorder bound K", func(s *Series) uint64 { return s.EventsLate.Load() }},
	{"oostream_events_irrelevant_total", "Events whose type the pattern does not mention", func(s *Series) uint64 { return s.Irrelevant.Load() }},
	{"oostream_matches_total", "Insert matches emitted", func(s *Series) uint64 { return s.Matches.Load() }},
	{"oostream_retractions_total", "Retract compensations emitted", func(s *Series) uint64 { return s.Retractions.Load() }},
	{"oostream_pred_errors_total", "Predicate evaluation errors (treated as non-match)", func(s *Series) uint64 { return s.PredErrors.Load() }},
	{"oostream_purged_total", "State items reclaimed by purge passes", func(s *Series) uint64 { return s.Purged.Load() }},
	{"oostream_purge_calls_total", "Purge passes that reclaimed at least one item", func(s *Series) uint64 { return s.PurgeCalls.Load() }},
	{"oostream_probes_total", "Construction probes triggered", func(s *Series) uint64 { return s.Probes.Load() }},
	{"oostream_empty_probes_total", "Construction probes that enumerated no match", func(s *Series) uint64 { return s.EmptyProbes.Load() }},
	{"oostream_repairs_total", "Predecessor (RIP) pointer repairs caused by out-of-order insertion", func(s *Series) uint64 { return s.Repairs.Load() }},
	{"oostream_events_dropped_total", "Events rejected by admission control", func(s *Series) uint64 { return s.Dropped.Load() }},
	{"oostream_events_dead_lettered_total", "Events routed to the dead-letter channel", func(s *Series) uint64 { return s.DeadLettered.Load() }},
	{"oostream_duplicates_suppressed_total", "Duplicate events and replayed emissions suppressed", func(s *Series) uint64 { return s.DupSuppressed.Load() }},
	{"oostream_restarts_total", "Supervised restarts from a checkpoint after a panic", func(s *Series) uint64 { return s.Restarts.Load() }},
	{"oostream_checkpoints_total", "Durable checkpoints written", func(s *Series) uint64 { return s.Checkpoints.Load() }},
	{"oostream_lineage_records_total", "Lineage records built by the provenance layer", func(s *Series) uint64 { return s.LineageRecords.Load() }},
	{"oostream_shedded_events_total", "Events discarded by overload degradation (Limits policy)", func(s *Series) uint64 { return s.SheddedEvents.Load() }},
	{"oostream_hybrid_switches_total", "Hybrid meta-engine strategy switches", func(s *Series) uint64 { return s.Switches.Load() }},
	{"oostream_agg_windows_total", "Aggregate window values emitted", func(s *Series) uint64 { return s.AggWindows.Load() }},
	{"oostream_agg_revisions_total", "Speculative aggregate revisions (retract+insert pairs)", func(s *Series) uint64 { return s.AggRevisions.Load() }},
	{"oostream_agg_inserts_total", "Elements inserted into the aggregation runs", func(s *Series) uint64 { return s.AggInserts.Load() }},
	{"oostream_agg_finger_hits_total", "Aggregation inserts appended at the tail of a run (in timestamp order)", func(s *Series) uint64 { return s.AggFingerHits.Load() }},
	{"oostream_spans_sampled_total", "Wall-latency spans opened by the sampler", func(s *Series) uint64 { return s.SpansSampled.Load() }},
	{"oostream_spans_abandoned_total", "Wall-latency spans abandoned (dropped/shed events)", func(s *Series) uint64 { return s.SpansAbandoned.Load() }},
	{"oostream_spans_dropped_total", "Wall-latency spans dropped at open (slot table full)", func(s *Series) uint64 { return s.SpansDropped.Load() }},
}

// promGauges maps Prometheus gauge names to series gauges.
var promGauges = []struct {
	metric string
	help   string
	load   func(*Series) int64
}{
	{"oostream_state_live", "Live buffered items (stack instances, negatives, pending matches)", func(s *Series) int64 { return s.LiveState.Load() }},
	{"oostream_state_peak", "Peak of oostream_state_live", func(s *Series) int64 { return s.LiveState.Peak() }},
	{"oostream_key_groups", "Live key-partitioned stack groups (0 when unkeyed)", func(s *Series) int64 { return s.KeyGroups.Load() }},
	{"oostream_key_groups_peak", "Peak of oostream_key_groups", func(s *Series) int64 { return s.KeyGroups.Peak() }},
	{"oostream_checkpoint_bytes", "Size of the most recent durable checkpoint", func(s *Series) int64 { return s.CheckpointBytes.Load() }},
	{"oostream_checkpoint_duration_ns", "Wall time of the most recent durable checkpoint", func(s *Series) int64 { return s.CheckpointNanos.Load() }},
	{"oostream_lineage_live", "Lineage records currently retained by pending matches", func(s *Series) int64 { return s.LineageLive.Load() }},
	{"oostream_lineage_bytes", "Estimated heap retained by live lineage records", func(s *Series) int64 { return s.LineageBytes.Load() }},
	{"oostream_current_k", "Effective disorder bound being enforced (logical ms)", func(s *Series) int64 { return s.CurrentK.Load() }},
	{"oostream_max_k", "Largest effective disorder bound ever enforced", func(s *Series) int64 { return s.CurrentK.Peak() }},
	{"oostream_degraded", "1 while overload degradation is shedding events", func(s *Series) int64 { return s.Degraded.Load() }},
	{"oostream_agg_tree_height", "1 while any aggregation element is live, else 0 (a run has no levels)", func(s *Series) int64 { return s.AggTreeHeight.Load() }},
	{"oostream_agg_elements", "Live aggregation elements across all groups", func(s *Series) int64 { return s.AggElements.Load() }},
}

// promHists maps Prometheus histogram names to series histograms.
var promHists = []struct {
	metric string
	help   string
	view   func(*Series) HistView
}{
	{"oostream_result_latency_ms", "Logical result latency: emission clock minus the match's last timestamp", func(s *Series) HistView { return s.LogicalLat.View() }},
	{"oostream_arrival_latency_events", "Arrivals between a match's completion and its emission", func(s *Series) HistView { return s.ArrivalLat.View() }},
	{"oostream_watermark_lag_ms", "Per-event lag behind the watermark (max timestamp seen)", func(s *Series) HistView { return s.WatermarkLag.View() }},
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), one {engine="<name>"} label per
// series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var snaps []*Series
	r.Each(func(s *Series) { snaps = append(snaps, s) })

	for _, c := range promCounters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.metric, c.help, c.metric); err != nil {
			return err
		}
		for _, s := range snaps {
			if _, err := fmt.Fprintf(w, "%s{engine=%q} %d\n", c.metric, s.Name(), c.load(s)); err != nil {
				return err
			}
		}
	}
	for _, g := range promGauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.metric, g.help, g.metric); err != nil {
			return err
		}
		for _, s := range snaps {
			if _, err := fmt.Fprintf(w, "%s{engine=%q} %d\n", g.metric, s.Name(), g.load(s)); err != nil {
				return err
			}
		}
	}
	for _, h := range promHists {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.metric, h.help, h.metric); err != nil {
			return err
		}
		for _, s := range snaps {
			if err := writePromHist(w, h.metric, s.Name(), "", h.view(s)); err != nil {
				return err
			}
		}
	}
	// Wall-clock latency families render only for series the sampler
	// populated: with sampling off they would be all-zero noise on every
	// engine.
	if err := writeWallHists(w, snaps); err != nil {
		return err
	}
	r.mu.RLock()
	extras := append([]func(io.Writer) error(nil), r.prom...)
	r.mu.RUnlock()
	for _, fn := range extras {
		if err := fn(w); err != nil {
			return err
		}
	}
	return nil
}

// writeWallHists renders the sampled wall/stage histograms, skipping
// series with no observations.
func writeWallHists(w io.Writer, snaps []*Series) error {
	const wallMetric = "oostream_wall_latency_us"
	wroteHelp := false
	for _, s := range snaps {
		v := s.WallLat.View()
		if v.Count == 0 {
			continue
		}
		if !wroteHelp {
			if _, err := fmt.Fprintf(w, "# HELP %s End-to-end wall-clock latency of sampled events\n# TYPE %s histogram\n", wallMetric, wallMetric); err != nil {
				return err
			}
			wroteHelp = true
		}
		if err := writePromHist(w, wallMetric, s.Name(), "", v); err != nil {
			return err
		}
	}
	const stageMetric = "oostream_stage_latency_us"
	wroteHelp = false
	for _, s := range snaps {
		for st := Stage(0); st < NumStages; st++ {
			v := s.StageLat[st].View()
			if v.Count == 0 {
				continue
			}
			if !wroteHelp {
				if _, err := fmt.Fprintf(w, "# HELP %s Per-stage wall-clock latency of sampled events\n# TYPE %s histogram\n", stageMetric, stageMetric); err != nil {
					return err
				}
				wroteHelp = true
			}
			if err := writePromHist(w, stageMetric, s.Name(), st.String(), v); err != nil {
				return err
			}
		}
	}
	return nil
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
