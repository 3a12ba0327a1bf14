// Package inorder implements the state-of-the-art SASE-style sequence scan
// and construction engine the paper uses as its point of departure. It is
// exactly correct for streams that arrive in timestamp order — the oracle
// cross-checks that in tests — and it is the engine whose misbehaviour on
// out-of-order input the paper analyzes: its stacks record arrival order,
// its predecessor (RIP) pointers capture "most recent at arrival", and its
// purge trusts the arrival clock, so disorder produces missed matches and,
// for negation, premature (false-positive) output.
//
// The implementation deliberately preserves those assumptions rather than
// repairing them; the repairs are the contribution of the native engine in
// internal/core.
package inorder

import (
	"fmt"
	"io"
	"math"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/metrics"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
	"oostream/internal/queue"
)

// instance is one stack entry of the classic (append-only) AIS.
type instance struct {
	ev event.Event
	// rip is the absolute index (offset by the stack's purge base) of the
	// top of the previous stack at push time; -1 when that stack was empty.
	rip int
}

// stack is an append-only active instance stack with prefix purging.
type stack struct {
	items []instance
	// base counts purged items so absolute indices stay stable.
	base int
}

func (s *stack) push(e event.Event, rip int) {
	s.items = append(s.items, instance{ev: e, rip: rip})
}

// topIndex returns the absolute index of the top, or -1 when empty.
func (s *stack) topIndex() int { return s.base + len(s.items) - 1 }

// at returns the instance at absolute index.
func (s *stack) at(abs int) instance { return s.items[abs-s.base] }

func (s *stack) len() int { return len(s.items) }

// purgeWhile removes the longest prefix whose events satisfy pred.
func (s *stack) purgeWhile(pred func(event.Event) bool) int {
	cut := 0
	for cut < len(s.items) && pred(s.items[cut].ev) {
		cut++
	}
	if cut == 0 {
		return 0
	}
	n := copy(s.items, s.items[cut:])
	s.items = s.items[:n]
	s.base += cut
	return cut
}

// Engine is the classic in-order SSC operator.
type Engine struct {
	plan   *plan.Plan
	stacks []*stack
	// negStores holds negative events (passing local predicates) per
	// negation, in arrival order (== timestamp order for in-order input).
	negStores [][]event.Event
	// clock is the engine's notion of current time: the timestamp of the
	// most recent arrival (NOT the max — this engine trusts arrival order).
	clock   event.Time
	arrival uint64
	met     metrics.Collector
	maxSeen event.Time
	// trace observes lifecycle steps when non-nil (nil-checked per site).
	trace     obsv.TraceHook
	traceName string
	// lat, when non-nil, stamps wall-clock stage boundaries on sampled
	// event spans.
	lat *obsv.LatencySampler
	// pending holds full bindings waiting for their negation gaps to close
	// (only trailing negation ever has to wait under the in-order
	// assumption), due at sealTS; ties leave in completion order.
	pending queue.Queue[pendingMatch]

	// prov enables lineage records on emitted matches (flag-checked per
	// site, like trace). trig*/visited carry the current trigger through
	// construction; lineageLive/lineageBytes track retained records.
	prov         bool
	trigSeq      event.Seq
	trigTS       event.Time
	visited      int
	lineageLive  int
	lineageBytes int
}

// pendingMatch is a binding whose negation gaps close at sealTS. prov is
// its lineage record, nil unless provenance is enabled.
type pendingMatch struct {
	events  []event.Event
	sealTS  event.Time
	madeSeq uint64 // arrival counter when the binding completed
	prov    *provenance.Record
}

var _ engine.Engine = (*Engine)(nil)

// New builds an in-order engine with no instruments (NewWithEnv's zero-Env
// form, the signature the repository benchmark compiles against).
func New(p *plan.Plan) *Engine { return NewWithEnv(p, engine.Env{}) }

// NewWithEnv builds an in-order engine for the plan, instrumented by env.
func NewWithEnv(p *plan.Plan, env engine.Env) *Engine {
	en := &Engine{
		plan:      p,
		stacks:    make([]*stack, p.Len()),
		negStores: make([][]event.Event, len(p.Negatives)),
		trace:     env.Trace,
		lat:       env.Latency,
		prov:      env.Provenance,
	}
	en.met, en.traceName = env.Collector(en.Name())
	for i := range en.stacks {
		en.stacks[i] = &stack{}
	}
	return en
}

// Name implements engine.Engine.
func (en *Engine) Name() string { return "inorder" }

// Metrics implements engine.Engine.
func (en *Engine) Metrics() metrics.Snapshot { return en.met.Snapshot() }

// Checkpoint implements engine.Engine: the baseline has no durable format.
func (en *Engine) Checkpoint(io.Writer) error {
	return fmt.Errorf("strategy %q: %w", en.Name(), engine.ErrNoCheckpoint)
}

// StateSnapshot implements engine.Engine. The in-order engine trusts
// arrival order, so its safe clock IS its clock.
func (en *Engine) StateSnapshot() *provenance.StateSnapshot {
	s := &provenance.StateSnapshot{
		Engine:        en.traceName,
		Started:       en.arrival > 0,
		Clock:         en.clock,
		Safe:          en.clock,
		PurgeFrontier: en.clock - en.plan.Window,
		StackDepths:   make([]int, len(en.stacks)),
		NegStoreSizes: make([]int, len(en.negStores)),
		Pending:       en.pending.Len(),
		Lineage: provenance.LineageStats{
			Enabled: en.prov,
			Live:    en.lineageLive,
			Bytes:   en.lineageBytes,
		},
	}
	for i, st := range en.stacks {
		s.StackDepths[i] = st.len()
	}
	for i, ns := range en.negStores {
		s.NegStoreSizes[i] = len(ns)
	}
	return s
}

// StateSize implements engine.Engine.
func (en *Engine) StateSize() int {
	total := 0
	for _, s := range en.stacks {
		total += s.len()
	}
	for _, ns := range en.negStores {
		total += len(ns)
	}
	return total + en.pending.Len()
}

// Process implements engine.Engine.
func (en *Engine) Process(e event.Event) []plan.Match {
	out := en.processOne(e, nil)
	en.lat.StageEnd(e.Seq, obsv.StageConstruct)
	en.met.SetLiveState(en.StateSize())
	if en.prov {
		en.met.SetLineageRetained(en.lineageLive, en.lineageBytes)
	}
	return out
}

// ProcessBatch implements engine.Engine. The classic engine's
// clock is the latest arrival's timestamp — it can move backwards — so its
// purge horizon is semantics-bearing (a deferred purge would retain
// instances a regressed clock then wrongly re-binds). The batch path
// therefore keeps the full per-event pipeline including the purge and only
// amortizes the output slice and gauge publication.
func (en *Engine) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	for i := range batch {
		out = en.processOne(batch[i], out)
		en.lat.StageEnd(batch[i].Seq, obsv.StageConstruct)
	}
	en.met.SetLiveState(en.StateSize())
	if en.prov {
		en.met.SetLineageRetained(en.lineageLive, en.lineageBytes)
	}
	return out
}

// processOne is the per-event pipeline shared by Process and ProcessBatch,
// everything except gauge publication.
func (en *Engine) processOne(e event.Event, out []plan.Match) []plan.Match {
	en.arrival++
	if !en.plan.Relevant(e.Type) {
		en.met.IncIrrelevant()
		return out
	}
	var lag event.Time
	if e.TS < en.maxSeen {
		lag = en.maxSeen - e.TS
	}
	en.met.IncIn(e.TS < en.maxSeen, lag)
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpAdmit, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq})
	}
	if e.TS > en.maxSeen {
		en.maxSeen = e.TS
	}
	// The classic engine trusts arrival order: its clock is the latest
	// arrival's timestamp, out-of-order or not.
	en.clock = e.TS

	if en.plan.ConstFalse {
		return out
	}

	for _, negIdx := range en.plan.NegativesForType(e.Type) {
		if plan.EvalLocal(en.plan.Negatives[negIdx].Local, e, en.met.IncPredError) {
			en.negStores[negIdx] = append(en.negStores[negIdx], e)
		}
	}
	for _, pos := range en.plan.PositionsForType(e.Type) {
		if !plan.EvalLocal(en.plan.Positives[pos].Local, e, en.met.IncPredError) {
			continue
		}
		rip := -1
		if pos > 0 {
			rip = en.stacks[pos-1].topIndex()
		}
		en.stacks[pos].push(e, rip)
		if en.trace != nil {
			en.trace.Trace(obsv.TraceEvent{Op: obsv.OpStackPush, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq, N: pos})
		}
		if pos == en.plan.Len()-1 {
			out = append(out, en.construct(e, rip)...)
		}
	}
	out = en.drainPending(en.clock, out)
	en.purge()
	return out
}

// construct enumerates matches ending in the just-pushed last-position
// event by the classic RIP walk: at each earlier position, candidates are
// the instances at or below the RIP recorded by the successor.
func (en *Engine) construct(last event.Event, rip int) []plan.Match {
	n := en.plan.Len()
	binding := make([]event.Event, n)
	binding[n-1] = last
	if en.prov {
		en.trigSeq = last.Seq
		en.trigTS = last.TS
		en.visited = 0
	}
	var out []plan.Match
	boundMask := uint64(1) << uint(n-1)
	if n == 1 {
		if en.plan.CrossSatisfiedAt(0, boundMask, binding, en.met.IncPredError) {
			out = en.emit(binding, out)
		}
		return out
	}
	var walk func(pos, limit int, mask uint64)
	walk = func(pos, limit int, mask uint64) {
		s := en.stacks[pos]
		for abs := limit; abs >= s.base; abs-- {
			inst := s.at(abs)
			if en.prov {
				en.visited++
			}
			// Window check against the last event's timestamp. For genuinely
			// in-order streams every instance below the RIP is earlier, so
			// this check only trims the window; on disordered input it is
			// the engine's only (insufficient) guard.
			span := binding[n-1].TS - inst.ev.TS
			if span > en.plan.Window {
				break // deeper instances arrived earlier; in-order means older
			}
			if inst.ev.TS >= binding[pos+1].TS {
				// Sequencing is strict on timestamps: a candidate must be
				// strictly earlier than its successor, not merely pushed
				// before it. Equal-timestamp ties (and, for repeated-type
				// patterns, the successor itself, reachable through its own
				// just-recorded RIP) land here and must be skipped; on
				// disordered input this is also the engine's (insufficient)
				// guard against inverted pairs.
				continue
			}
			binding[pos] = inst.ev
			m := mask | 1<<uint(pos)
			if !en.plan.CrossSatisfiedAt(pos, m, binding, en.met.IncPredError) {
				continue
			}
			if pos == 0 {
				out = en.emit(binding, out)
				continue
			}
			next := inst.rip
			top := en.stacks[pos-1].topIndex()
			if next > top {
				next = top
			}
			walk(pos-1, next, m)
		}
	}
	limit := rip
	if top := en.stacks[n-2].topIndex(); limit > top {
		limit = top
	}
	walk(n-2, limit, boundMask)
	return out
}

// emit handles a complete positive binding. Gaps that have already closed
// under the in-order clock are checked immediately; a binding with a still
// open gap (trailing negation) waits in the pending queue until the clock
// passes its seal timestamp.
func (en *Engine) emit(binding []event.Event, out []plan.Match) []plan.Match {
	events := make([]event.Event, len(binding))
	copy(events, binding)
	sealTS := en.clock // no negation: sealed now
	for negIdx := range en.plan.Negatives {
		_, hi := en.plan.GapBounds(negIdx, events)
		if hi > sealTS {
			sealTS = hi
		}
	}
	pm := pendingMatch{events: events, sealTS: sealTS, madeSeq: en.arrival}
	if en.prov {
		pm.prov = &provenance.Record{
			Kind:       provenance.KindInsert,
			Events:     provenance.Refs(events),
			WindowLo:   events[0].TS,
			WindowHi:   events[0].TS + en.plan.Window,
			SealTS:     sealTS,
			TriggerSeq: en.trigSeq,
			TriggerTS:  en.trigTS,
			TriggerPos: len(events) - 1,
			Traversed:  en.visited,
		}
		en.met.IncLineage()
	}
	if sealTS <= en.clock {
		return en.finalize(pm, out)
	}
	if pm.prov != nil {
		en.lineageLive++
		en.lineageBytes += pm.prov.SizeBytes()
	}
	en.pending.Insert(pm.sealTS, pm)
	return out
}

// drainPending finalizes, in seal order, the pending bindings sealing at or
// before through (the clock; the end of time at Flush), settling their lineage.
func (en *Engine) drainPending(through event.Time, out []plan.Match) []plan.Match {
	en.pending.PopThrough(through, func(pm pendingMatch) {
		if pm.prov != nil {
			en.lineageLive--
			en.lineageBytes -= pm.prov.SizeBytes()
		}
		out = en.finalize(pm, out)
	})
	return out
}

// finalize checks a binding against the negatives seen SO FAR (the in-order
// assumption — a late negative arriving afterwards is missed, producing the
// premature output the paper describes), projects, and emits.
func (en *Engine) finalize(pm pendingMatch, out []plan.Match) []plan.Match {
	for negIdx := range en.plan.Negatives {
		lo, hi := en.plan.GapBounds(negIdx, pm.events)
		for _, t := range en.negStores[negIdx] {
			if t.TS <= lo || t.TS >= hi {
				continue
			}
			if en.plan.NegMatches(negIdx, t, pm.events, en.met.IncPredError) {
				return out
			}
		}
	}
	fields, err := en.plan.Project(pm.events)
	if err != nil {
		en.met.IncPredError(err)
		return out
	}
	m := plan.Match{
		Kind:      plan.Insert,
		Events:    pm.events,
		Fields:    fields,
		EmitSeq:   event.Seq(en.arrival),
		EmitClock: en.clock,
	}
	if pm.prov != nil {
		pm.prov.EmitClock = en.clock
		m.Prov = pm.prov
	}
	en.met.AddMatch(false, en.clock-m.Last().TS, en.arrival-pm.madeSeq)
	if en.trace != nil {
		te := obsv.TraceEvent{Op: obsv.OpEmit, Engine: en.traceName, TS: m.Last().TS, Seq: m.EmitSeq, N: len(m.Events)}
		if m.Prov != nil {
			te.Match = m.Prov.MatchKey()
		}
		en.trace.Trace(te)
	}
	return append(out, m)
}

// purge removes state the in-order assumption says is dead: instances (and
// negatives) older than clock − Window can no longer combine with any
// future arrival, which the engine believes has timestamp >= clock.
func (en *Engine) purge() {
	horizon := en.clock - en.plan.Window
	purged := 0
	for _, s := range en.stacks {
		purged += s.purgeWhile(func(e event.Event) bool { return e.TS < horizon })
	}
	// A leading negation's gap reaches back to first.TS − W, and a future
	// binding can have first.TS as old as clock − W, so negatives stay
	// live for two windows.
	negHorizon := en.clock - 2*en.plan.Window
	for i, ns := range en.negStores {
		cut := 0
		for cut < len(ns) && ns[cut].TS < negHorizon {
			cut++
		}
		if cut > 0 {
			n := copy(ns, ns[cut:])
			en.negStores[i] = ns[:n]
			purged += cut
		}
	}
	if purged > 0 {
		en.met.ObservePurge(purged)
		if en.trace != nil {
			en.trace.Trace(obsv.TraceEvent{Op: obsv.OpPurge, Engine: en.traceName, TS: en.clock, N: purged})
		}
	}
}

// Advance implements engine.Engine: a heartbeat carrying only a
// timestamp. Under the in-order assumption it moves the clock like an
// event would, sealing pending trailing-negation output and purging.
func (en *Engine) Advance(ts event.Time) []plan.Match {
	if ts > en.clock {
		en.clock = ts
	}
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpHeartbeat, Engine: en.traceName, TS: ts})
	}
	out := en.drainPending(en.clock, nil)
	en.purge()
	en.met.SetLiveState(en.StateSize())
	return out
}

// Flush implements engine.Engine: end of stream means no further negative
// can arrive, so every pending binding is final-checked and emitted.
func (en *Engine) Flush() []plan.Match {
	out := en.drainPending(math.MaxInt64, nil)
	en.met.SetLiveState(en.StateSize())
	if en.prov {
		en.met.SetLineageRetained(en.lineageLive, en.lineageBytes)
	}
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpFlush, Engine: en.traceName, TS: en.clock})
	}
	return out
}
