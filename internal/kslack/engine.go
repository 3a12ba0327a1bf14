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

// Engine is the buffer-and-reorder levee: a K-slack buffer in front of an
// engine that then sees a sorted stream — the out-of-order kernel at K=0
// (StrategyKSlack), or a QuerySet's dispatcher over one such kernel per
// query. It is the second baseline of the evaluation: exact under the
// disorder bound, but it pays the full K in result latency and buffers the
// entire recent stream, relevant or not.
type Engine struct {
	buf   *Buffer
	inner engine.Engine
	// tap reports the levee's own lifecycle steps (admit, drop, shed, emit
	// at restamp). Series and hook bind to the levee, not the inner engine:
	// the inner view of the stream is delayed by K and would double-report,
	// so the outer series is the one that reflects the live stream. Its
	// sampler stamps wall-clock stage boundaries on sampled spans: the levee
	// owns the buffer-residency stage, so admitted events are Held (the
	// facade's unconditional Finish cannot close a span still sitting in the
	// reorder buffer) and FinishHeld at release, after the inner engine has
	// processed them. The inner engine gets no sampler — the levee stamps
	// StageConstruct around the inner batch itself, keeping one stamp per
	// stage.
	tap engine.Tap
	// arrival counts the events offered; with the buffer's maximum timestamp
	// it stamps what the inner engine emits, so result latency includes the
	// wait in the buffer.
	arrival uint64
	// prov mirrors the inner engine's provenance switch (the inner engine
	// builds the records); restamp then rewrites each relayed record's emit
	// clock to the outer clock (the inner engine's clock lags by K).
	prov bool
	// adapt, when non-nil, makes the slack dynamic: the buffer re-reads
	// the controller's effective K at every push, and the engine feeds the
	// controller lag observations and buffer occupancy.
	adapt   *adaptive.Controller
	shedded uint64
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
	en := newEngine(newBufferDynamic(ctrl.EffectiveK), inner, env)
	en.adapt = ctrl
	return en
}

func newEngine(buf *Buffer, inner engine.Engine, env engine.Env) *Engine {
	return &Engine{buf: buf, inner: inner, tap: env.Publish("kslack"), prov: env.Provenance}
}

// Name implements engine.Engine.
func (en *Engine) Name() string { return "kslack" }

// checkpointFile is the levee's record: the reorder buffer's watermark
// position, the events still held and the arrival count that stamps
// emissions (under the field names the QuerySet's checkpoint first gave
// them), and the controller and the dynamic frontier when the slack is
// adaptive.
type checkpointFile struct {
	K        event.Time      `json:"k"`
	MaxSeen  event.Time      `json:"maxSeen"`
	Started  bool            `json:"started"`
	Buffer   []event.Event   `json:"buffer,omitempty"`
	Arrival  uint64          `json:"arrival,omitempty"`
	Frontier event.Time      `json:"frontier,omitempty"`
	Adaptive *adaptive.State `json:"adaptive,omitempty"`
}

// Checkpoint implements engine.Engine: the levee's section, then the inner
// engine's.
func (en *Engine) Checkpoint(w io.Writer) error {
	maxSeen, started := en.buf.MaxSeen()
	cf := checkpointFile{K: en.buf.k, MaxSeen: maxSeen, Started: started, Buffer: en.buf.pending(), Arrival: en.arrival}
	if en.adapt != nil {
		st := en.adapt.Export()
		cf.Adaptive, cf.Frontier = &st, en.buf.frontier
	}
	if err := engine.WriteSection(w, &cf); err != nil {
		return err
	}
	if err := en.inner.Checkpoint(w); err != nil {
		return fmt.Errorf("kslack: inner engine %q: %w", en.inner.Name(), err)
	}
	return nil
}

// Restore rebuilds a levee from the next levee record of s, instrumented by
// env as NewEngine would; restoreInner rebuilds the engine behind the buffer
// from the sections after it. k is the configured slack: a static buffer
// written at another K is refused, since whatever admits in front of the
// levee (a supervisor) drops by k.
func Restore(s *engine.Sections, k event.Time, env engine.Env, restoreInner func(*engine.Sections) (engine.Engine, error)) (*Engine, error) {
	var cf checkpointFile
	if err := s.Next("levee", "maxSeen", &cf); err != nil {
		return nil, fmt.Errorf("kslack: %w", err)
	}
	if cf.Adaptive == nil && cf.K != k {
		return nil, fmt.Errorf("kslack: checkpoint written at K=%d, configured K=%d", cf.K, k)
	}
	inner, err := restoreInner(s)
	if err != nil {
		return nil, err
	}
	var en *Engine
	if cf.Adaptive == nil {
		en = NewEngine(k, inner, env)
	} else {
		ctrl, err := adaptive.Restore(*cf.Adaptive)
		if err != nil {
			return nil, fmt.Errorf("kslack: restore adaptive controller: %w", err)
		}
		en = NewAdaptiveEngine(ctrl, inner, env)
		en.buf.frontier = cf.Frontier
	}
	en.buf.restore(cf.MaxSeen, cf.Started, cf.Buffer)
	en.arrival = cf.Arrival
	return en, nil
}

// StateSnapshot implements engine.Engine: the levee's buffer occupancy and
// watermark wrap the inner engine's snapshot.
func (en *Engine) StateSnapshot() *provenance.StateSnapshot {
	clock, _ := en.buf.MaxSeen()
	s := &provenance.StateSnapshot{
		Engine:    en.tap.Name(),
		Started:   en.arrival > 0,
		Clock:     clock,
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
	s.StackDepths, s.StackShared = inner.StackDepths, inner.StackShared
	s.NegStoreSizes = inner.NegStoreSizes
	s.Pending = inner.Pending
	s.Lineage.Live = inner.Lineage.Live
	s.Lineage.Bytes = inner.Lineage.Bytes
	s.Lineage.Truncated = inner.Lineage.Truncated
	return s
}

// Watermark returns the buffer's release watermark: nothing it releases
// later is below it.
func (en *Engine) Watermark() event.Time { return en.buf.Watermark() }

// StateSize implements engine.Engine: buffered events plus inner state.
func (en *Engine) StateSize() int { return en.buf.Len() + en.inner.StateSize() }

// Process implements engine.Engine.
func (en *Engine) Process(e event.Event) []plan.Match {
	out := en.processOne(e, nil)
	en.tap.LiveState.Set(int64(en.StateSize()))
	en.publishAdaptive()
	return out
}

// publishAdaptive refreshes the controller-derived gauges (batch cadence,
// like the live-state gauge).
func (en *Engine) publishAdaptive() {
	if en.adapt == nil {
		return
	}
	en.tap.SetBound(en.adapt.EffectiveK(), en.adapt.Degraded())
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
	en.tap.LiveState.Set(int64(en.StateSize()))
	en.publishAdaptive()
	return out
}

// processOne admits one outer event and feeds whatever the buffer
// releases to the inner engine.
func (en *Engine) processOne(e event.Event, out []plan.Match) []plan.Match {
	en.arrival++
	maxSeen, started := en.buf.MaxSeen()
	var lag event.Time
	ooo := started && e.TS < maxSeen
	if ooo {
		lag = event.Lag(maxSeen, e.TS)
	}
	en.tap.Admit(e, ooo, lag)
	if en.adapt != nil {
		// Same observation point as Series.WatermarkLag — bound violators
		// included, so a late storm is evidence to grow K, not invisible.
		en.adapt.ObserveLag(lag)
	}
	en.tap.Spans.Hold(e.Seq)
	before := en.buf.Dropped()
	released := en.buf.Push(e)
	if en.buf.Dropped() > before {
		en.tap.Reject(e, false)
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
				en.tap.Reject(shed, true)
			}
		}
	}
	return out
}

// Advance implements engine.Engine: a heartbeat moves the reorder buffer's
// watermark to ts − K, releasing (and processing) everything at or below
// it, and forwards the heartbeat to the inner engine.
func (en *Engine) Advance(ts event.Time) []plan.Match {
	en.tap.Mark(obsv.OpHeartbeat, "", ts, 0)
	out := en.feed(en.buf.Advance(ts))
	return append(out, en.restamp(en.inner.Advance(en.buf.Watermark()))...)
}

// Flush implements engine.Engine.
func (en *Engine) Flush() []plan.Match {
	out := en.feed(en.buf.Flush())
	out = append(out, en.restamp(en.inner.Flush())...)
	en.tap.LiveState.Set(int64(en.StateSize()))
	clock, _ := en.buf.MaxSeen()
	en.tap.Mark(obsv.OpFlush, "", clock, 0)
	return out
}

func (en *Engine) feed(released []event.Event) []plan.Match {
	out := en.feedInto(released, nil)
	en.tap.LiveState.Set(int64(en.StateSize()))
	return out
}

// feedInto runs a released run through the inner engine's batch path
// (identical to per-event feeding by the ProcessBatch contract — the
// outer clock and arrival counter are fixed for the whole run, so every
// restamp is unchanged) and appends the restamped matches to out, or
// returns them as they are when out is empty. The run is the buffer's
// reused slice: the inner engine copies the events it keeps.
func (en *Engine) feedInto(released []event.Event, out []plan.Match) []plan.Match {
	if len(released) == 0 {
		return out
	}
	// Stage accounting for the released run: close each span's buffer
	// residency at release, attribute the inner batch to construction,
	// and close the (held) spans once their matches are restamped. Every
	// call is a one-branch no-op for unsampled seqs or a nil sampler.
	for i := range released {
		en.tap.Spans.StageEnd(released[i].Seq, obsv.StageBuffer)
	}
	ms := en.inner.ProcessBatch(released)
	for i := range released {
		en.tap.Spans.StageEnd(released[i].Seq, obsv.StageConstruct)
	}
	if ms = en.restamp(ms); len(out) == 0 {
		out = ms
	} else {
		out = append(out, ms...)
	}
	for i := range released {
		en.tap.Spans.FinishHeld(released[i].Seq)
	}
	return out
}

// restamp rewrites the emission metadata of the inner engine's matches to
// the buffer's clock and the arrival count — the inner engine sees the
// stream up to K late, so its own stamps would leave the buffer's wait out
// of result latency — and records the matches in the outer series.
func (en *Engine) restamp(ms []plan.Match) []plan.Match {
	clock, _ := en.buf.MaxSeen()
	for i := range ms {
		m := &ms[i]
		m.EmitClock, m.EmitSeq = clock, event.Seq(en.arrival)
		if m.Prov != nil {
			m.Prov.EmitClock = clock
		}
		en.tap.Emit(m, clock-m.Last().TS, 0)
	}
	return ms
}

// Metrics implements engine.Engine: the levee's series, which carries the
// kernel's (the builder hands the kernel the levee's Series.Carry).
func (en *Engine) Metrics() obsv.Snapshot { return en.tap.Snapshot() }
