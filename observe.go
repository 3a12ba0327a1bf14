package oostream

import (
	"oostream/internal/obsv"
	"oostream/internal/provenance"
)

// Observability re-exports. The live observability layer has two parts,
// both injected through Config (the sole injection points):
//
//   - Config.Observer (*Observer): a registry of named metric series every
//     engine publishes into — atomic counters, gauges, and fixed-bucket
//     histograms for logical/arrival latency and watermark lag. Serve it
//     over HTTP with the CLIs' -listen flag (Prometheus text on /metrics,
//     JSON on /varz) or render it directly with Observer.WritePrometheus.
//   - Config.Trace (TraceHook): a callback fired on every match-lifecycle
//     step. A nil hook costs one predictable branch; a FlightRecorder is a
//     bounded in-memory hook suitable for production flight recording.
type (
	// Observer is a registry of live metric series; see NewObserver.
	Observer = obsv.Registry
	// TraceHook observes match-lifecycle steps; see TraceFunc and
	// FlightRecorder for ready-made implementations.
	TraceHook = obsv.TraceHook
	// TraceEvent is one lifecycle step delivered to a TraceHook.
	TraceEvent = obsv.TraceEvent
	// TraceFunc adapts a function to the TraceHook interface.
	TraceFunc = obsv.TraceFunc
	// TraceOp enumerates lifecycle steps (OpAdmit, OpEmit, …).
	TraceOp = obsv.Op
	// FlightRecorder is a bounded ring-buffer TraceHook: it keeps the most
	// recent N trace events for post-hoc inspection (and is served on
	// /debug/flight by the CLIs' -listen endpoint).
	FlightRecorder = obsv.FlightRecorder
	// MultiHook fans one trace stream out to several hooks.
	MultiHook = obsv.MultiHook
)

// Wall-clock latency attribution re-exports (see Config.Latency): a
// deterministic 1-in-N sample of events is span-tracked through the
// pipeline, decomposing real elapsed time into stage durations (buffer,
// wal, construct, emit) whose sum equals the end-to-end wall time,
// with optional multi-window SLO burn-rate tracking on top. Read via
// Engine.LatencyReport / QuerySet.LatencyReport, StateSnapshot.Latency, or
// the /debug/latency HTTP endpoint.
type (
	// LatencyReport is the JSON-ready attribution digest: span accounting,
	// the wall histogram, per-stage summaries, and SLO windows.
	LatencyReport = obsv.LatencyReport
	// LatencyHistSummary digests one latency histogram (count, mean, p50,
	// p95, p99, max, sum — all in microseconds).
	LatencyHistSummary = obsv.HistSummary
	// SLOSnapshot is the burn-rate tracker's window state.
	SLOSnapshot = obsv.SLOSnapshot
	// SLOWindow is one rolling window's good/bad counts and burn rate.
	SLOWindow = obsv.SLOWindow
)

// Provenance re-exports. With Config.Provenance set, every emitted (and
// retracted) match carries a Lineage record in Match.Prov, and engines
// answer StateSnapshot with a live read-only view of their internal state
// (served on /debug/state by the CLIs' -listen endpoint and rendered by
// cmd/espexplain).
type (
	// Lineage is a per-match provenance record: the contributing events,
	// key group, window bounds, trigger detail, and — for retractions —
	// the late event that invalidated the result.
	Lineage = provenance.Record
	// LineageRef identifies one contributing event inside a Lineage.
	LineageRef = provenance.EventRef
	// StateSnapshot is a read-only view of an engine's live state; see
	// Engine.StateSnapshot.
	StateSnapshot = provenance.StateSnapshot
	// KeyGroupStat is one entry of StateSnapshot.TopKeyGroups.
	KeyGroupStat = provenance.KeyGroupStat
	// LineageStats summarizes lineage retention inside a StateSnapshot.
	LineageStats = provenance.LineageStats
)

// Lineage kinds, re-exported.
const (
	// LineageInsert marks the lineage of an emitted result.
	LineageInsert = provenance.KindInsert
	// LineageRetract marks the lineage of a retraction compensation.
	LineageRetract = provenance.KindRetract
)

// Observability constructors, re-exported.
var (
	// NewObserver creates an empty metrics registry for Config.Observer.
	NewObserver = obsv.NewRegistry
	// NewFlightRecorder creates a ring-buffer TraceHook holding the most
	// recent n events.
	NewFlightRecorder = obsv.NewFlightRecorder
)

// Trace operations, re-exported.
const (
	OpAdmit      = obsv.OpAdmit
	OpDrop       = obsv.OpDrop
	OpStackPush  = obsv.OpStackPush
	OpRepair     = obsv.OpRepair
	OpTrigger    = obsv.OpTrigger
	OpEmit       = obsv.OpEmit
	OpRetract    = obsv.OpRetract
	OpPurge      = obsv.OpPurge
	OpHeartbeat  = obsv.OpHeartbeat
	OpCheckpoint = obsv.OpCheckpoint
	OpFlush      = obsv.OpFlush
)
