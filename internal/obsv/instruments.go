package obsv

import (
	"fmt"
	"io"
	"reflect"
	"time"
)

// Instrument is one row of the instrument table: a Series field and every
// name its readers give it. Series.Snapshot, /varz and /metrics all render
// from the table, so an instrument is named in one place and the three
// agree by construction.
type Instrument struct {
	// Field is the Series field the row reads; Peak reads a Gauge's peak
	// rather than its value.
	Field string
	Peak  bool
	// Snap is the Snapshot field the row fills when it is not Field; a row
	// whose field Snapshot lacks (StageLat) fills nothing.
	Snap string
	// Varz is the /varz key of a counter or gauge.
	Varz string
	// Metric and Help name and describe the Prometheus family.
	Metric, Help string

	// carried counts the series s carries too (Series.Carry).
	carried bool
	// sparse renders the family only for series that observed something
	// (the sampler's histograms: all-zero noise on every other series).
	sparse bool
	// digest is a histogram's /varz entries.
	digest []stat

	field, snap int    // resolved indices; snap < 0: not in Snapshot
	kind        string // counter, gauge or histogram
}

// stat is one /varz entry derived from a histogram.
type stat struct {
	key string
	of  func(HistView) any
}

func histMean(v HistView) any  { return v.Mean() }
func histMax(v HistView) any   { return v.Max }
func histCount(v HistView) any { return v.Count }
func histP95(v HistView) any   { return v.Quantile(0.95) }

// instruments is the table, in Prometheus exposition order.
var instruments = []Instrument{
	{Field: "EventsIn", Varz: "events_in", Metric: "oostream_events_in_total", Help: "Pattern-relevant events ingested"},
	{Field: "EventsOOO", Varz: "events_ooo", Metric: "oostream_events_ooo_total", Help: "Events that arrived out of timestamp order (within the bound)"},
	{Field: "EventsLate", Varz: "events_late", Metric: "oostream_events_late_total", Help: "Events that violated the disorder bound K", carried: true},
	{Field: "Irrelevant", Varz: "irrelevant", Metric: "oostream_events_irrelevant_total", Help: "Events whose type the pattern does not mention", carried: true},
	{Field: "Matches", Varz: "matches", Metric: "oostream_matches_total", Help: "Insert matches emitted"},
	{Field: "Retractions", Varz: "retractions", Metric: "oostream_retractions_total", Help: "Retract compensations emitted"},
	{Field: "PredErrors", Varz: "pred_errors", Metric: "oostream_pred_errors_total", Help: "Predicate evaluation errors (treated as non-match)", carried: true},
	{Field: "Purged", Varz: "purged", Metric: "oostream_purged_total", Help: "State items reclaimed by purge passes", carried: true},
	{Field: "PurgeCalls", Varz: "purge_calls", Metric: "oostream_purge_calls_total", Help: "Purge passes that reclaimed at least one item", carried: true},
	{Field: "Probes", Varz: "probes", Metric: "oostream_probes_total", Help: "Construction probes triggered"},
	{Field: "EmptyProbes", Varz: "empty_probes", Metric: "oostream_empty_probes_total", Help: "Construction probes that enumerated no match"},
	{Field: "Repairs", Varz: "repairs", Metric: "oostream_repairs_total", Help: "Predecessor (RIP) pointer repairs caused by out-of-order insertion"},
	{Field: "DuplicatesSuppressed", Varz: "dup_suppressed", Metric: "oostream_duplicates_suppressed_total", Help: "Duplicate events and replayed emissions suppressed"},
	{Field: "Checkpoints", Varz: "checkpoints", Metric: "oostream_checkpoints_total", Help: "Durable checkpoints written"},
	{Field: "LineageRecords", Varz: "lineage_records", Metric: "oostream_lineage_records_total", Help: "Lineage records built by the provenance layer"},
	{Field: "SheddedEvents", Varz: "shedded_events", Metric: "oostream_shedded_events_total", Help: "Events discarded by overload degradation (Limits policy)"},
	{Field: "Switches", Varz: "hybrid_switches", Metric: "oostream_hybrid_switches_total", Help: "Hybrid meta-engine strategy switches"},
	{Field: "AggWindows", Varz: "agg_windows", Metric: "oostream_agg_windows_total", Help: "Aggregate window values emitted"},
	{Field: "AggRevisions", Varz: "agg_revisions", Metric: "oostream_agg_revisions_total", Help: "Speculative aggregate revisions (retract+insert pairs)"},
	{Field: "AggInserts", Varz: "agg_inserts", Metric: "oostream_agg_inserts_total", Help: "Elements inserted into the aggregation runs"},
	{Field: "AggFingerHits", Varz: "agg_finger_hits", Metric: "oostream_agg_finger_hits_total", Help: "Aggregation inserts appended at the tail of a run (in timestamp order)"},
	{Field: "SpansSampled", Varz: "spans_sampled", Metric: "oostream_spans_sampled_total", Help: "Wall-latency spans opened by the sampler"},
	{Field: "SpansAbandoned", Varz: "spans_abandoned", Metric: "oostream_spans_abandoned_total", Help: "Wall-latency spans abandoned (dropped/shed events)"},
	{Field: "SpansDropped", Varz: "spans_dropped", Metric: "oostream_spans_dropped_total", Help: "Wall-latency spans dropped at open (slot table full)"},

	{Field: "LiveState", Varz: "state_live", Metric: "oostream_state_live", Help: "Live buffered items (stack instances, negatives, pending matches)"},
	{Field: "LiveState", Peak: true, Snap: "PeakState", Varz: "state_peak", Metric: "oostream_state_peak", Help: "Peak of oostream_state_live"},
	{Field: "KeyGroups", Varz: "key_groups", Metric: "oostream_key_groups", Help: "Live key-partitioned stack groups (0 when unkeyed)"},
	{Field: "KeyGroups", Peak: true, Snap: "PeakKeyGroups", Varz: "key_groups_peak", Metric: "oostream_key_groups_peak", Help: "Peak of oostream_key_groups"},
	{Field: "CheckpointBytes", Varz: "checkpoint_bytes", Metric: "oostream_checkpoint_bytes", Help: "Size of the most recent durable checkpoint"},
	{Field: "CheckpointDuration", Varz: "checkpoint_nanos", Metric: "oostream_checkpoint_duration_ns", Help: "Wall time of the most recent durable checkpoint"},
	{Field: "LineageLive", Varz: "lineage_live", Metric: "oostream_lineage_live", Help: "Lineage records currently retained by pending matches"},
	{Field: "LineageBytes", Varz: "lineage_bytes", Metric: "oostream_lineage_bytes", Help: "Estimated heap retained by live lineage records"},
	{Field: "CurrentK", Varz: "current_k", Metric: "oostream_current_k", Help: "Effective disorder bound being enforced (logical ms)"},
	{Field: "CurrentK", Peak: true, Snap: "MaxK", Varz: "max_k", Metric: "oostream_max_k", Help: "Largest effective disorder bound ever enforced"},
	{Field: "Degraded", Varz: "degraded", Metric: "oostream_degraded", Help: "1 while overload degradation is shedding events"},
	{Field: "AggTreeHeight", Varz: "agg_tree_height", Metric: "oostream_agg_tree_height", Help: "1 while any aggregation element is live, else 0 (a run has no levels)"},
	{Field: "AggElements", Varz: "agg_elements", Metric: "oostream_agg_elements", Help: "Live aggregation elements across all groups"},

	{Field: "LogicalLat", Metric: "oostream_result_latency_ms", Help: "Logical result latency: emission clock minus the match's last timestamp",
		digest: []stat{{"latency_mean_ms", histMean}, {"latency_max_ms", histMax}}},
	{Field: "ArrivalLat", Metric: "oostream_arrival_latency_events", Help: "Arrivals between a match's completion and its emission"},
	{Field: "WatermarkLag", Metric: "oostream_watermark_lag_ms", Help: "Per-event lag behind the watermark (max timestamp seen)",
		digest: []stat{{"watermark_lag_mean_ms", histMean}, {"watermark_lag_max_ms", histMax}}},
	{Field: "WallLat", Metric: "oostream_wall_latency_us", Help: "End-to-end wall-clock latency of sampled events", sparse: true,
		digest: []stat{{"wall_latency_count", histCount}, {"wall_latency_mean_us", histMean}, {"wall_latency_p95_us", histP95}, {"wall_latency_max_us", histMax}}},
	{Field: "StageLat", Metric: "oostream_stage_latency_us", Help: "Per-stage wall-clock latency of sampled events", sparse: true},
}

func init() {
	series, snap := reflect.TypeFor[Series](), reflect.TypeFor[Snapshot]()
	for i := range instruments {
		in := &instruments[i]
		f, ok := series.FieldByName(in.Field)
		if !ok {
			panic("obsv: instrument table names no Series field " + in.Field)
		}
		in.field, in.snap = f.Index[0], -1
		if sf, ok := snap.FieldByName(in.SnapshotField()); ok {
			in.snap = sf.Index[0]
		}
		switch f.Type {
		case reflect.TypeFor[Counter]():
			in.kind = "counter"
		case reflect.TypeFor[Gauge]():
			in.kind = "gauge"
		default:
			in.kind = "histogram"
		}
	}
}

// Instruments returns the instrument table, in exposition order.
func Instruments() []Instrument { return append([]Instrument(nil), instruments...) }

// Carried reports that the row of a series counts what it carries too
// (Series.Carry): the only rows a carried series publishes.
func (in *Instrument) Carried() bool { return in.carried }

// SnapshotField is the name of the Snapshot field the row fills.
func (in *Instrument) SnapshotField() string {
	if in.Snap != "" {
		return in.Snap
	}
	return in.Field
}

// at returns the address of the row's field in s.
func (in *Instrument) at(s *Series) any {
	return reflect.ValueOf(s).Elem().Field(in.field).Addr().Interface()
}

// read is the row's value in s: a counter (plus what s carries, for a
// carried row) as uint64, a gauge's value or peak as int64, a histogram's
// view; nil for the per-stage array.
func (in *Instrument) read(s *Series) any {
	switch x := in.at(s).(type) {
	case *Counter:
		n := x.Load()
		if in.carried {
			for c := s.carried.Load(); c != nil; c = c.carried.Load() {
				n += in.at(c).(*Counter).Load()
			}
		}
		return n
	case *Gauge:
		if in.Peak {
			return x.Peak()
		}
		return x.Load()
	case *Hist:
		return x.View()
	}
	return nil
}

// Snapshot is a copy of one series, what an engine's Metrics returns. Each
// field is loaded atomically; a snapshot racing the writer may be off by
// the in-flight event, which every consumer (harness, monitors) tolerates.
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
	// (0 when unkeyed).
	KeyGroups     int
	PeakKeyGroups int
	// LogicalLat is emission clock minus the match's last timestamp;
	// ArrivalLat the arrivals between a match's completion and its emission.
	LogicalLat HistView
	ArrivalLat HistView
	// WatermarkLag is the per-event lag behind the watermark (the max
	// timestamp seen): 0 for in-order arrivals, the measured disorder for
	// out-of-order ones. Its quantiles are what adaptive K selection reads.
	WatermarkLag HistView

	// DuplicatesSuppressed counts duplicate input events turned away at
	// admission plus replayed match emissions already delivered before a
	// crash.
	DuplicatesSuppressed uint64
	// Checkpoints counts the durable checkpoints written, CheckpointBytes
	// and CheckpointDuration the size and wall time of the most recent one.
	Checkpoints        uint64
	CheckpointBytes    uint64
	CheckpointDuration time.Duration

	// LineageRecords counts lineage records built (provenance enabled);
	// LineageLive and LineageBytes gauge those retained by pending matches
	// and their estimated heap.
	LineageRecords uint64
	LineageLive    int
	LineageBytes   int

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
	// timestamp order: no search, no shift). The names date from the finger
	// tree the runs replaced and are kept for what reads them.
	AggInserts    uint64
	AggFingerHits uint64
	// AggTreeHeight is 1 while any aggregation element is live and 0
	// otherwise (a run has no levels); AggElements the live elements across
	// all groups.
	AggTreeHeight int
	AggElements   int

	// WallLat and the Spans counters are the latency sampler's (latency.go):
	// end-to-end wall latency (µs) of sampled spans, and spans opened,
	// abandoned, and dropped at open.
	WallLat        HistView
	SpansSampled   uint64
	SpansAbandoned uint64
	SpansDropped   uint64
}

// Snapshot copies the series through the instrument table.
func (s *Series) Snapshot() Snapshot {
	var snap Snapshot
	dst := reflect.ValueOf(&snap).Elem()
	for i := range instruments {
		in := &instruments[i]
		if in.snap < 0 {
			continue
		}
		f, v := dst.Field(in.snap), reflect.ValueOf(in.read(s))
		if f.Kind() == reflect.Bool {
			f.SetBool(!v.IsZero())
		} else {
			f.Set(v.Convert(f.Type()))
		}
	}
	return snap
}

// String summarizes the snapshot on one line.
func (s Snapshot) String() string {
	return fmt.Sprintf("in=%d ooo=%d late=%d matches=%d retract=%d peak=%d lat(mean=%.1f p99=%d)",
		s.EventsIn, s.EventsOOO, s.EventsLate, s.Matches, s.Retractions,
		s.PeakState, s.LogicalLat.Mean(), s.LogicalLat.Quantile(0.99))
}

// varz renders one series as a flat map.
func (s *Series) varz() map[string]any {
	m := make(map[string]any, len(instruments)+4)
	for i := range instruments {
		in := &instruments[i]
		if in.Varz != "" {
			m[in.Varz] = in.read(s)
		}
		for _, d := range in.digest {
			m[d.key] = d.of(in.read(s).(HistView))
		}
	}
	return m
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), one {engine="<name>"} label per
// series, then every block added by RegisterPrometheus.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var all []*Series
	r.Each(func(s *Series) { all = append(all, s) })
	for i := range instruments {
		if err := instruments[i].writeProm(w, all); err != nil {
			return err
		}
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

// writeProm renders the row's family over every series. A sparse family
// skips series (and, per stage, stages) with no observations, and writes
// its HELP only once it has a sample to follow it.
func (in *Instrument) writeProm(w io.Writer, all []*Series) error {
	helped := false
	help := func() error {
		if helped {
			return nil
		}
		helped = true
		_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", in.Metric, in.Help, in.Metric, in.kind)
		return err
	}
	if !in.sparse {
		if err := help(); err != nil {
			return err
		}
	}
	for _, s := range all {
		var err error
		switch x := in.at(s).(type) {
		case *Hist:
			if v := x.View(); !in.sparse || v.Count > 0 {
				if err = help(); err == nil {
					err = writePromHist(w, in.Metric, s.Name(), "", v)
				}
			}
		case *[NumStages]Hist:
			for st := range x {
				if v := x[st].View(); v.Count > 0 && err == nil {
					if err = help(); err == nil {
						err = writePromHist(w, in.Metric, s.Name(), Stage(st).String(), v)
					}
				}
			}
		default:
			_, err = fmt.Fprintf(w, "%s{engine=%q} %d\n", in.Metric, s.Name(), in.read(s))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
