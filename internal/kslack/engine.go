package kslack

import (
	"fmt"
	"io"

	"oostream/internal/adaptive"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// Engine is the buffer-and-reorder levee strategy: a K-slack buffer in
// front of an engine that then sees a sorted stream — the out-of-order
// kernel at K=0 behind the facade, the same composition a QuerySet builds
// around its shared buffer. It is the second baseline of the evaluation:
// exact under the disorder bound, but it pays the full K in result latency
// and buffers the entire recent stream, relevant or not.
type Engine struct {
	buf   *Buffer
	inner engine.Engine
	met   *obsv.Series
	// clock is the outer (arrival-side) max timestamp, used to measure
	// true result latency including the buffering delay.
	clock   event.Time
	arrival uint64
	// trace observes the levee's own lifecycle steps (admit, drop, emit)
	// when non-nil. The series and hook bind to the levee, not the inner
	// engine: the inner view of the stream is delayed by K and would
	// double-report, so the outer series is the one that reflects the
	// live stream.
	trace     obsv.TraceHook
	traceName string
	// prov mirrors the inner engine's provenance switch (the inner engine
	// builds the records); restamp then rewrites each relayed record's emit
	// clock to the outer clock (the inner engine's clock lags by K).
	prov bool
	// adapt, when non-nil, makes the slack dynamic: the buffer re-reads
	// the controller's effective K at every push, and the engine feeds the
	// controller lag observations and buffer occupancy.
	adapt   *adaptive.Controller
	shedded uint64
	// lat, when non-nil, stamps wall-clock stage boundaries on sampled
	// spans. The levee owns the buffer-residency stage: admitted events
	// are Held (so the facade's unconditional Finish cannot close a span
	// still sitting in the reorder buffer) and FinishHeld at release,
	// after the inner engine has processed them. The inner engine gets no
	// sampler — the levee stamps StageConstruct around the inner batch
	// itself, keeping one stamp per stage.
	lat *obsv.LatencySampler
}

var _ engine.Engine = (*Engine)(nil)

// NewEngine wraps inner with a K-slack reorder buffer, instrumented by env
// (series, hook, and sampler stay on the levee; inner is built with the
// provenance switch alone).
func NewEngine(k event.Time, inner engine.Engine, env engine.Env) *Engine {
	return newEngine(NewBuffer(k), inner, env)
}

// NewAdaptiveEngine wraps inner with a reorder buffer whose slack is the
// controller's effective K, re-read at every push. The engine feeds the
// controller watermark-lag observations and buffer occupancy (driving K
// derivation and overload degradation).
func NewAdaptiveEngine(ctrl *adaptive.Controller, inner engine.Engine, env engine.Env) *Engine {
	en := newEngine(NewBufferDynamic(ctrl.EffectiveK), inner, env)
	en.adapt = ctrl
	return en
}

func newEngine(buf *Buffer, inner engine.Engine, env engine.Env) *Engine {
	en := &Engine{buf: buf, inner: inner, trace: env.Trace, prov: env.Provenance, lat: env.Latency}
	en.met, en.traceName = env.Publish(en.Name())
	return en
}

// Name implements engine.Engine.
func (en *Engine) Name() string { return "kslack" }

// Checkpoint implements engine.Engine: the reorder buffer has no durable
// format.
func (en *Engine) Checkpoint(io.Writer) error {
	return fmt.Errorf("strategy %q: %w", en.Name(), engine.ErrNoCheckpoint)
}

// StateSnapshot implements engine.Engine: the levee's buffer occupancy and
// watermark wrap the inner engine's snapshot.
func (en *Engine) StateSnapshot() *provenance.StateSnapshot {
	s := &provenance.StateSnapshot{
		Engine:    en.traceName,
		Started:   en.arrival > 0,
		Clock:     en.clock,
		Safe:      en.buf.Watermark(),
		BufferLen: en.buf.Len(),
		Lineage:   provenance.LineageStats{Enabled: en.prov},
	}
	if en.adapt != nil {
		cs := en.adapt.Snapshot()
		s.Adaptive = &provenance.AdaptiveStats{
			Enabled:      cs.Enabled,
			EffectiveK:   cs.EffectiveK,
			NominalK:     cs.NominalK,
			MaxKObserved: cs.MaxKObserved,
			Degraded:     cs.Degraded,
			Shedded:      en.shedded,
			Resizes:      cs.Resizes,
		}
	}
	inner := en.inner.StateSnapshot()
	s.Inner = inner
	s.PurgeFrontier = inner.PurgeFrontier
	s.StackDepths = inner.StackDepths
	s.NegStoreSizes = inner.NegStoreSizes
	s.Pending = inner.Pending
	s.Lineage.Live = inner.Lineage.Live
	s.Lineage.Bytes = inner.Lineage.Bytes
	s.Lineage.Truncated = inner.Lineage.Truncated
	return s
}

// StateSize implements engine.Engine: buffered events plus inner state.
func (en *Engine) StateSize() int { return en.buf.Len() + en.inner.StateSize() }

// Process implements engine.Engine.
func (en *Engine) Process(e event.Event) []plan.Match {
	out := en.processOne(e, nil)
	en.met.LiveState.Set(int64(en.StateSize()))
	en.publishAdaptive()
	return out
}

// publishAdaptive refreshes the controller-derived gauges (batch cadence,
// like the live-state gauge).
func (en *Engine) publishAdaptive() {
	if en.adapt == nil {
		return
	}
	en.met.SetBound(en.adapt.EffectiveK(), en.adapt.Degraded())
}

// ProcessBatch implements engine.Engine. The levee MUST admit
// outer events one at a time — each push can move the watermark and
// release buffered events whose restamped emission metadata (EmitSeq,
// EmitClock) is defined by the outer clock at that moment — so the batch
// path loops the per-event pipeline, handing each released run to the
// inner engine's batch path and sharing one output slice; only the state
// gauge is deferred to the batch boundary.
func (en *Engine) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	for i := range batch {
		out = en.processOne(batch[i], out)
	}
	en.met.LiveState.Set(int64(en.StateSize()))
	en.publishAdaptive()
	return out
}

// processOne admits one outer event and feeds whatever the buffer
// releases to the inner engine.
func (en *Engine) processOne(e event.Event, out []plan.Match) []plan.Match {
	en.arrival++
	var lag event.Time
	if e.TS < en.clock {
		lag = en.clock - e.TS
	}
	en.met.IncIn(e.TS < en.clock, lag)
	if en.adapt != nil {
		// Same observation point as Series.WatermarkLag — bound violators
		// included, so a late storm is evidence to grow K, not invisible.
		en.adapt.ObserveLag(lag)
	}
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpAdmit, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq})
	}
	if e.TS > en.clock {
		en.clock = e.TS
	}
	en.lat.Hold(e.Seq)
	before := en.buf.Dropped()
	released := en.buf.Push(e)
	if en.buf.Dropped() > before {
		en.met.EventsLate.Inc()
		en.lat.Abandon(e.Seq)
		if en.trace != nil {
			en.trace.Trace(obsv.TraceEvent{Op: obsv.OpDrop, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq})
		}
	}
	out = en.feedInto(released, out)
	if en.adapt != nil {
		// Degradation check runs on the post-push occupancy (before
		// shedding trims it) so the controller sees the overload; shedding
		// then bounds the buffer deterministically, oldest first.
		en.adapt.NoteState(en.buf.Len())
		if limit := en.adapt.Limits().MaxBufferedEvents; limit > 0 {
			for _, shed := range en.buf.ShedOldest(limit) {
				en.shedded++
				en.met.SheddedEvents.Inc()
				en.lat.Abandon(shed.Seq)
				if en.trace != nil {
					en.trace.Trace(obsv.TraceEvent{Op: obsv.OpShed, Engine: en.traceName, Type: shed.Type, TS: shed.TS, Seq: shed.Seq})
				}
			}
		}
	}
	return out
}

// Advance implements engine.Engine: a heartbeat moves the reorder buffer's
// watermark to ts − K, releasing (and processing) everything at or below
// it, and forwards the heartbeat to the inner engine.
func (en *Engine) Advance(ts event.Time) []plan.Match {
	if ts > en.clock {
		en.clock = ts
	}
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpHeartbeat, Engine: en.traceName, TS: ts})
	}
	out := en.feed(en.buf.Advance(ts))
	return append(out, en.restamp(en.inner.Advance(en.buf.Watermark()))...)
}

// Flush implements engine.Engine.
func (en *Engine) Flush() []plan.Match {
	out := en.feed(en.buf.Flush())
	out = append(out, en.restamp(en.inner.Flush())...)
	en.met.LiveState.Set(int64(en.StateSize()))
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpFlush, Engine: en.traceName, TS: en.clock})
	}
	return out
}

func (en *Engine) feed(released []event.Event) []plan.Match {
	out := en.feedInto(released, nil)
	en.met.LiveState.Set(int64(en.StateSize()))
	return out
}

// feedInto runs a released run through the inner engine's batch path
// (identical to per-event feeding by the ProcessBatch contract — the
// outer clock and arrival counter are fixed for the whole run, so every
// restamp is unchanged) and appends the restamped matches to out.
func (en *Engine) feedInto(released []event.Event, out []plan.Match) []plan.Match {
	if len(released) == 0 {
		return out
	}
	// Stage accounting for the released run: close each span's buffer
	// residency at release, attribute the inner batch to construction,
	// and close the (held) spans once their matches are restamped. Every
	// call is a one-branch no-op for unsampled seqs or a nil sampler.
	for i := range released {
		en.lat.StageEnd(released[i].Seq, obsv.StageBuffer)
	}
	ms := en.inner.ProcessBatch(released)
	for i := range released {
		en.lat.StageEnd(released[i].Seq, obsv.StageConstruct)
	}
	out = append(out, en.restamp(ms)...)
	for i := range released {
		en.lat.FinishHeld(released[i].Seq)
	}
	return out
}

// Restamp rewrites the emission metadata of a match relayed from behind a
// reorder buffer to the clock and arrival count of the layer that admits the
// stream: the engine behind the buffer sees the stream up to K late, so its
// own stamps would leave the buffer's wait out of result latency. The levee
// and a QuerySet both restamp what their K=0 kernels emit.
func Restamp(m *plan.Match, clock event.Time, arrival uint64) {
	m.EmitClock = clock
	m.EmitSeq = event.Seq(arrival)
	if m.Prov != nil {
		m.Prov.EmitClock = clock
	}
}

// restamp rewrites emission metadata to the outer clock so latency reflects
// the buffering delay, and records the matches in the outer series.
func (en *Engine) restamp(ms []plan.Match) []plan.Match {
	for i := range ms {
		Restamp(&ms[i], en.clock, en.arrival)
		retract := ms[i].Kind == plan.Retract
		en.met.AddMatch(retract, en.clock-ms[i].Last().TS, 0)
		if en.trace != nil {
			op := obsv.OpEmit
			if retract {
				op = obsv.OpRetract
			}
			te := obsv.TraceEvent{Op: op, Engine: en.traceName, TS: ms[i].Last().TS, Seq: ms[i].EmitSeq, N: len(ms[i].Events)}
			if ms[i].Prov != nil {
				te.Match = ms[i].Prov.MatchKey()
			}
			en.trace.Trace(te)
		}
	}
	return ms
}

// Metrics implements engine.Engine: the levee's series, which carries the
// kernel's (the builder hands the kernel the levee's Series.Carry).
func (en *Engine) Metrics() obsv.Snapshot { return en.met.Snapshot() }
