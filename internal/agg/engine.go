// Package agg implements the windowed-aggregation operator: a wrapper
// engine that consumes the pattern matches of any inner strategy engine
// and emits sliding-window aggregate values (COUNT/SUM/AVG/MIN/MAX) over
// them, one sorted run with a two-stacks fold (fiba.Run) per GROUP BY key
// group.
//
// The operator sits outermost — outside the K-slack levee or the ordered-
// output wrapper — because it needs the inner engine's *matches*, not the
// raw stream. Each inner match becomes one run element at the match's
// completion time (its last event's timestamp); retractions from the
// speculative and hybrid strategies delete their element again. A window
// value is two searches and one merge of folded partials, and the head of
// the run is dropped a chunk at a time as windows seal. The fold rests on the
// lateness bound below: a window is read only once its elements are final
// (sealed mode) or revised only within that bound of the clock
// (speculative mode), which is the margin each run is built with.
//
// Emission has two modes, mirroring the strategy split:
//
//   - sealed (native, kslack, inorder, hybrid): a window (end−W, end] is
//     emitted exactly once, when the clock passes end + L — where the
//     lateness bound L is K, plus one window length when the pattern has a
//     trailing negation (such matches are withheld until their gap seals,
//     so they can surface up to K+W after their own timestamp). Sealed
//     output is final: no retractions.
//
//   - speculative (speculate): a window is previewed as soon as the clock
//     passes its end; late elements (or retracted matches) that change an
//     already-previewed window emit a retract of the old value followed by
//     an insert of the new one, so downstream consumers converge by
//     cancellation exactly as they do for speculative pattern matches.
package agg

import (
	"math"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/fiba"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// maxProvRefs caps the contributing-event citations on one aggregate
// match's lineage record; windows citing more events mark the record
// Truncated instead of growing without bound.
const maxProvRefs = 64

// group is one GROUP BY key group: its run of match elements and, in
// speculative mode, the window values already previewed (by window end), so
// revisions can retract exactly what was emitted.
type group struct {
	key     event.Value
	has     bool
	run     *fiba.Run
	emitted map[event.Time]*plan.AggValue
	// sealed is the highest window end the operator this group was restored
	// from had emitted (a merged restore resumes from the earliest of its
	// parts' frontiers, which may lie before it); below every end for a
	// group made since.
	sealed event.Time
}

// elemRef locates one inner match's run element for retraction.
type elemRef struct {
	group *group
	key   fiba.Key
}

// elemAux is the per-element payload stored in the run: the inner match's
// identity (for retraction and purge bookkeeping) and, when provenance is
// on, the citations of the events the match bound.
type elemAux struct {
	matchKey string
	refs     []provenance.EventRef
}

// Engine is the windowed-aggregation operator. It implements engine.Engine;
// Checkpoint works in sealed mode over a checkpointable inner engine and
// refuses otherwise.
type Engine struct {
	p     *plan.Plan
	spec  *plan.AggSpec
	inner engine.Engine
	met   *obsv.Series

	// speculative selects preview+revision emission; sealed otherwise.
	speculative bool
	// lateness is the bound L: no inner match can surface with a
	// completion timestamp older than clock − L.
	lateness event.Time

	// clock is the outer max-seen timestamp; arrival the outer event
	// count (aggregate matches are restamped against both).
	clock   event.Time
	arrival uint64

	// sealed is the highest window end finalized (emitted in sealed mode,
	// purged in both); sealedInit guards its zero value.
	sealed     event.Time
	sealedInit bool
	// previewed is the highest window end previewed (speculative only).
	previewed   event.Time
	previewInit bool

	// elemSeq disambiguates element keys at equal timestamps.
	elemSeq uint64

	// groups holds the live groups in insertion order, which is the order
	// windows are emitted and checkpointed in and the only way they are
	// walked; byKey finds the group of an arriving element.
	groups  []*group
	byKey   map[event.Value]*group
	byMatch map[string]elemRef
	// elems is the number of live elements across all groups.
	elems int

	// The instruments of the operator's Env. Series and hook bind to the
	// operator itself: the inner engine's matches are consumed, not emitted,
	// so the outer series is the one that reflects the query's visible
	// output. prov builds lineage here for the same reason (the inner
	// engine's records would never surface): each aggregate match cites the
	// events of the inner matches contributing to its window, capped at
	// maxProvRefs. The latency sampler is not the operator's: the inner
	// strategy engine owns the construction stage boundary.
	trace     obsv.TraceHook
	traceName string
	prov      bool
}

var _ engine.Engine = (*Engine)(nil)

// New is NewWithEnv with no instruments (the signature the repository
// benchmark compiles against).
func New(p *plan.Plan, inner engine.Engine, speculative bool, lateness event.Time) *Engine {
	return NewWithEnv(p, inner, speculative, lateness, engine.Env{})
}

// NewWithEnv wraps a fully built strategy engine with the aggregation
// operator compiled into p, instrumented by env. speculative selects
// preview+revision emission (the speculate strategy); lateness is the
// bound L the facade derived from K and the pattern shape.
func NewWithEnv(p *plan.Plan, inner engine.Engine, speculative bool, lateness event.Time, env engine.Env) *Engine {
	if p.Agg == nil {
		panic("agg: plan has no aggregate clause")
	}
	en := &Engine{
		p:           p,
		spec:        p.Agg,
		inner:       inner,
		speculative: speculative,
		lateness:    lateness,
		byKey:       make(map[event.Value]*group),
		byMatch:     make(map[string]elemRef),
		trace:       env.Trace,
		prov:        env.Provenance,
	}
	en.met, en.traceName = env.Publish(en.Name())
	return en
}

// Name implements engine.Engine.
func (en *Engine) Name() string { return "agg(" + en.inner.Name() + ")" }

// StateSize implements engine.Engine: live elements plus inner state.
func (en *Engine) StateSize() int {
	return len(en.byMatch) + en.inner.StateSize()
}

// Process implements engine.Engine.
func (en *Engine) Process(e event.Event) []plan.Match {
	out := en.processOne(e, nil)
	en.publishGauges()
	return out
}

// ProcessBatch implements engine.Engine: the per-event pipeline in
// a loop (each event can move the clock and seal windows whose emission
// metadata depends on that moment), sharing one output slice and deferring
// only gauge publication to the batch boundary.
func (en *Engine) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	for i := range batch {
		out = en.processOne(batch[i], out)
	}
	en.publishGauges()
	return out
}

// processOne admits one event: feed the inner engine, absorb the matches
// it emits into the runs, then advance the output frontiers under the
// (possibly) moved clock. Absorption runs before the clock advances so a
// match surfacing exactly at the lateness bound lands in its window before
// that window seals.
func (en *Engine) processOne(e event.Event, out []plan.Match) []plan.Match {
	en.arrival++
	var lag event.Time
	if e.TS < en.clock {
		lag = en.clock - e.TS
	}
	en.met.IncIn(e.TS < en.clock, lag)
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpAdmit, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq})
	}
	out = en.absorb(en.inner.Process(e), out)
	if e.TS > en.clock {
		en.clock = e.TS
		// The inner stack's own watermark can lag the stream clock the
		// operator seals by: irrelevant event types advance no inner clock
		// at all, and under the K-slack levee the core clock is the largest
		// *released* timestamp, which trails the watermark across gaps in
		// event time. Matches parked on a negation gap would then surface
		// after their window sealed here, so every clock move is forwarded
		// as a heartbeat, draining what the new clock seals before the
		// windows are. Without negations nothing is parked — inner matches
		// always surface within K of their timestamp — so the plain path
		// skips the nudge.
		if len(en.p.Negatives) > 0 {
			out = en.absorb(en.inner.Advance(e.TS), out)
		}
	}
	return en.advanceOutput(out)
}

// Advance implements engine.Engine: the heartbeat is forwarded to the
// inner engine first (it may seal pending matches, which must be absorbed
// before the outer clock moves), then windows are sealed under the new
// watermark.
func (en *Engine) Advance(ts event.Time) []plan.Match {
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpHeartbeat, Engine: en.traceName, TS: ts})
	}
	out := en.absorb(en.inner.Advance(ts), nil)
	if ts > en.clock {
		en.clock = ts
	}
	out = en.advanceOutput(out)
	en.publishGauges()
	return out
}

// Flush implements engine.Engine: absorb the inner engine's final matches,
// then emit every remaining window as final.
func (en *Engine) Flush() []plan.Match {
	out := en.absorb(en.inner.Flush(), nil)
	if en.speculative {
		out = en.previewTo(0, true, out)
	} else {
		out = en.sealTo(0, true, out)
	}
	en.reclaimAll()
	en.publishGauges()
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpFlush, Engine: en.traceName, TS: en.clock})
	}
	return out
}

// Metrics implements engine.Engine: the operator's series, which carries
// the strategy's (the builder hands the strategy the operator's
// Series.Carry).
func (en *Engine) Metrics() obsv.Snapshot { return en.met.Snapshot() }

// StateSnapshot implements engine.Engine.
func (en *Engine) StateSnapshot() *provenance.StateSnapshot {
	s := &provenance.StateSnapshot{
		Engine:  en.traceName,
		Started: en.arrival > 0,
		Clock:   en.clock,
		Safe:    en.clock - en.lateness,
		Pending: len(en.byMatch),
		Lineage: provenance.LineageStats{Enabled: en.prov},
	}
	if en.sealedInit {
		s.PurgeFrontier = en.sealed + en.spec.Slide - en.p.Window
	}
	if en.speculative {
		for _, g := range en.groups {
			s.Vulnerable += len(g.emitted)
		}
	}
	if en.spec.GroupSlot >= 0 {
		s.KeyAttr = en.spec.GroupAttr
		s.KeyGroups = len(en.groups)
		var gs []provenance.KeyGroupStat
		for _, g := range en.groups {
			gs = append(gs, provenance.KeyGroupStat{Key: g.key.String(), Size: g.run.Size()})
		}
		s.TopKeyGroups = provenance.TopK(gs, 8)
	}
	inner := en.inner.StateSnapshot()
	s.Inner = inner
	s.StackDepths = inner.StackDepths
	s.NegStoreSizes = inner.NegStoreSizes
	return s
}

// absorb takes a batch of inner matches into the runs: inserts add
// elements, retractions (speculative/hybrid inner) delete them again. In
// speculative mode each change revises the previewed windows it touches.
func (en *Engine) absorb(ms []plan.Match, out []plan.Match) []plan.Match {
	for i := range ms {
		if ms[i].Kind == plan.Retract {
			out = en.removeElem(ms[i], out)
		} else {
			out = en.addElem(ms[i], out)
		}
	}
	return out
}

// addElem maps one inner match to a run element and inserts it.
func (en *Engine) addElem(m plan.Match, out []plan.Match) []plan.Match {
	ts, part, gv, ok := en.spec.ElementOf(m, en.met.IncPredError)
	if !ok {
		return out
	}
	g := en.byKey[mapKey(gv, en.spec.GroupSlot >= 0)]
	if g == nil {
		g = en.newGroup(gv, en.spec.GroupSlot >= 0)
	}
	aux := &elemAux{matchKey: m.Key()}
	if en.prov {
		aux.refs = provenance.Refs(m.Events)
	}
	key := fiba.Key{TS: ts, Seq: en.elemSeq}
	en.elemSeq++
	en.met.AggInserts.Inc()
	if g.run.Insert(key, part, aux) {
		en.met.AggFingerHits.Inc()
	}
	en.elems++
	en.byMatch[aux.matchKey] = elemRef{group: g, key: key}
	if en.speculative {
		out = en.reviseAround(g, ts, out)
	}
	return out
}

// removeElem deletes the element an inner retraction points at. A missing
// element is benign: the match never produced one (attribute error) or its
// window already sealed and purged — in sealed mode the insert/retract
// pair always lands before the seal, so nothing wrong was emitted.
func (en *Engine) removeElem(m plan.Match, out []plan.Match) []plan.Match {
	k := m.Key()
	ref, ok := en.byMatch[k]
	if !ok {
		return out
	}
	delete(en.byMatch, k)
	if _, ok := ref.group.run.Delete(ref.key); ok {
		en.elems--
	}
	if en.speculative {
		out = en.reviseAround(ref.group, ref.key.TS, out)
	}
	return out
}

// newGroup registers an empty group. Its run's margin is how far behind the
// furthest window end read so far a later read, insert or delete can fall:
// nothing in sealed mode, where a window is read once and every later element
// is past its end; the lateness bound plus one slide in speculative mode,
// where a late element re-reads the previewed windows that contain it (the
// slide keeps an element exactly at the bound on the covered side).
func (en *Engine) newGroup(key event.Value, has bool) *group {
	g := &group{key: key, has: has, sealed: math.MinInt64}
	if en.speculative {
		g.run = fiba.NewRun(en.lateness + en.spec.Slide)
		g.emitted = make(map[event.Time]*plan.AggValue)
	} else {
		g.run = fiba.NewRun(0)
	}
	en.groups = append(en.groups, g)
	en.byKey[mapKey(key, has)] = g
	return g
}

// mapKey is the byKey key of a group: its GROUP BY value in map-key form,
// the zero Value when the query is ungrouped.
func mapKey(key event.Value, has bool) event.Value {
	if !has {
		return event.Value{}
	}
	return key.MapKey()
}

// advanceOutput brings emission up to the current clock: previews (spec
// mode) up to the clock itself, seals (both modes) up to clock − L.
func (en *Engine) advanceOutput(out []plan.Match) []plan.Match {
	if en.speculative {
		out = en.previewTo(en.clock, false, out)
		en.reclaim(en.clock - en.lateness)
		return out
	}
	return en.sealTo(en.clock-en.lateness, false, out)
}

// sealTo emits every still-unsealed window with end < watermark as final,
// purging dead elements as the frontier advances. flush ignores the
// watermark and drains everything.
func (en *Engine) sealTo(watermark event.Time, flush bool, out []plan.Match) []plan.Match {
	for {
		end, ok := en.nextEnd(en.sealed, en.sealedInit)
		if !ok {
			return out
		}
		if !flush && end >= watermark {
			return out
		}
		out = en.emitEnd(end, false, out)
		en.sealed, en.sealedInit = end, true
		en.purgeFor(end)
	}
}

// previewTo emits every un-previewed window with end <= limit
// (speculative mode). Previews are revisable until the window seals.
func (en *Engine) previewTo(limit event.Time, flush bool, out []plan.Match) []plan.Match {
	for {
		end, ok := en.nextEnd(en.previewed, en.previewInit)
		if !ok {
			return out
		}
		if !flush && end > limit {
			return out
		}
		out = en.emitEnd(end, true, out)
		en.previewed, en.previewInit = end, true
	}
}

// reclaim advances the seal frontier in speculative mode: windows with
// end < watermark can no longer be revised, so their preview records drop
// and their dead elements purge. Nothing is emitted — previews already
// were.
func (en *Engine) reclaim(watermark event.Time) {
	end := alignDown(watermark-1, en.spec.Slide)
	if en.sealedInit && end <= en.sealed {
		return
	}
	en.sealed, en.sealedInit = end, true
	en.purgeFor(end)
}

// reclaimAll drops every element and group after a flush.
func (en *Engine) reclaimAll() {
	if en.elems > 0 {
		en.met.ObservePurge(en.elems)
	}
	en.groups, en.elems = nil, 0
	en.byKey = make(map[event.Value]*group)
	en.byMatch = make(map[string]elemRef)
}

// nextEnd returns the smallest grid end after cursor whose window holds at
// least one live element — skipping empty grid slots directly, so a long
// stream silence costs one search per group, not one iteration per slide.
func (en *Engine) nextEnd(cursor event.Time, cursorInit bool) (event.Time, bool) {
	slide := en.spec.Slide
	if !cursorInit {
		m, ok := en.minElemTS()
		if !ok {
			return 0, false
		}
		return plan.AlignUp(m, slide), true
	}
	end := cursor + slide
	m, ok := en.firstAfter(end - en.p.Window)
	if !ok {
		return 0, false
	}
	if m <= end {
		return end, true
	}
	// The window at end is empty; the first end that can see the element
	// at m is its aligned-up grid slot (nonempty because slide <= window).
	return plan.AlignUp(m, slide), true
}

// minElemTS is the smallest live element timestamp across all groups.
func (en *Engine) minElemTS() (event.Time, bool) {
	var best event.Time
	found := false
	for _, g := range en.groups {
		if k, ok := g.run.First(); ok && (!found || k.TS < best) {
			best, found = k.TS, true
		}
	}
	return best, found
}

// firstAfter is the smallest live element timestamp strictly greater
// than t across all groups.
func (en *Engine) firstAfter(t event.Time) (event.Time, bool) {
	var best event.Time
	found := false
	for _, g := range en.groups {
		if k, ok := g.run.After(fiba.Key{TS: t, Seq: fiba.MaxSeq}); ok && (!found || k.TS < best) {
			best, found = k.TS, true
		}
	}
	return best, found
}

// emitEnd emits the window at end for every group that has a value
// passing HAVING, in group insertion order.
func (en *Engine) emitEnd(end event.Time, preview bool, out []plan.Match) []plan.Match {
	for _, g := range en.groups {
		if end <= g.sealed {
			continue
		}
		av := en.windowValue(g, end)
		if av == nil {
			continue
		}
		en.met.AggWindows.Inc()
		if preview {
			g.emitted[end] = av
		}
		out = en.emit(g, av, plan.Insert, out)
	}
	return out
}

// windowValue computes the window (end−W, end] for one group, or nil when
// the window is empty or HAVING rejects it.
func (en *Engine) windowValue(g *group, end event.Time) *plan.AggValue {
	w := en.p.Window
	part := g.run.Query(fiba.Key{TS: end - w, Seq: fiba.MaxSeq}, fiba.Key{TS: end, Seq: fiba.MaxSeq})
	v, n, ok := en.spec.Result(part)
	if !ok {
		return nil
	}
	av := &plan.AggValue{
		Func:        string(en.spec.Func),
		WindowStart: end - w,
		WindowEnd:   end,
		Group:       g.key,
		HasGroup:    g.has,
		Value:       v,
		Count:       n,
	}
	if !en.spec.EvalHaving(av, en.met.IncPredError) {
		return nil
	}
	return av
}

// reviseAround re-evaluates every already-previewed window an element at
// ts falls in (speculative mode), emitting retract+insert pairs where the
// previewed value changed.
func (en *Engine) reviseAround(g *group, ts event.Time, out []plan.Match) []plan.Match {
	if !en.previewInit {
		return out
	}
	w := en.p.Window
	for end := plan.AlignUp(ts, en.spec.Slide); end <= en.previewed && end-w < ts; end += en.spec.Slide {
		out = en.revise(g, end, out)
	}
	return out
}

// revise reconciles one previewed window against its current value.
func (en *Engine) revise(g *group, end event.Time, out []plan.Match) []plan.Match {
	old := g.emitted[end]
	nv := en.windowValue(g, end)
	switch {
	case old == nil && nv == nil:
	case old == nil:
		// The window surfaced late (was empty or HAVING-rejected at
		// preview time): a plain insert, no compensation needed.
		en.met.AggWindows.Inc()
		g.emitted[end] = nv
		out = en.emit(g, nv, plan.Insert, out)
	case nv == nil:
		en.met.AggRevisions.Inc()
		delete(g.emitted, end)
		out = en.emit(g, old, plan.Retract, out)
	case old.Same(nv):
	default:
		en.met.AggRevisions.Inc()
		g.emitted[end] = nv
		out = en.emit(g, old, plan.Retract, out)
		out = en.emit(g, nv, plan.Insert, out)
	}
	return out
}

// emit builds and accounts one aggregate match.
func (en *Engine) emit(g *group, av *plan.AggValue, kind plan.MatchKind, out []plan.Match) []plan.Match {
	m := plan.Match{
		Kind:      kind,
		Events:    []event.Event{plan.WindowEvent(av.WindowEnd)},
		EmitSeq:   event.Seq(en.arrival),
		EmitClock: en.clock,
		Agg:       av,
	}
	if en.prov {
		m.Prov = en.record(g, av, kind)
	}
	retract := kind == plan.Retract
	lat := en.clock - av.WindowEnd
	if lat < 0 {
		lat = 0
	}
	en.met.AddMatch(retract, lat, 0)
	if en.trace != nil {
		op := obsv.OpEmit
		if retract {
			op = obsv.OpRetract
		}
		te := obsv.TraceEvent{Op: op, Engine: en.traceName, TS: av.WindowEnd, Seq: m.EmitSeq, N: int(av.Count)}
		if m.Prov != nil {
			te.Match = m.Prov.MatchKey()
		}
		en.trace.Trace(te)
	}
	return append(out, m)
}

// record builds the lineage record for one aggregate match: the window
// bounds, the group key, and the citations of the events whose matches
// contribute to the window, capped at maxProvRefs.
func (en *Engine) record(g *group, av *plan.AggValue, kind plan.MatchKind) *provenance.Record {
	r := &provenance.Record{
		Kind:      provenance.KindInsert,
		WindowLo:  av.WindowStart,
		WindowHi:  av.WindowEnd,
		SealTS:    av.WindowEnd + en.lateness,
		EmitClock: en.clock,
	}
	if kind == plan.Retract {
		r.Kind = provenance.KindRetract
	}
	if av.HasGroup {
		r.Key = av.Group.String()
		r.KeyAttr = en.spec.GroupAttr
	}
	lo := fiba.Key{TS: av.WindowStart, Seq: fiba.MaxSeq}
	hi := fiba.Key{TS: av.WindowEnd, Seq: fiba.MaxSeq}
	g.run.Ascend(lo, hi, func(_ fiba.Key, _ fiba.Partial, aux any) bool {
		a := aux.(*elemAux)
		if len(a.refs) == 0 || len(r.Events)+len(a.refs) > maxProvRefs {
			// Elements restored from a checkpoint carry no citations;
			// either way the record is an undercount, so mark it.
			r.Truncated = true
			return len(a.refs) == 0
		}
		r.Events = append(r.Events, a.refs...)
		return true
	})
	return r
}

// purgeFor removes elements that can never contribute to a window past
// end (ts <= end + slide − W), drops their retraction bookkeeping, and in
// speculative mode forgets preview records for sealed windows.
func (en *Engine) purgeFor(end event.Time) {
	cut := end + en.spec.Slide - en.p.Window
	n := 0
	for _, g := range en.groups {
		n += g.run.PurgeThrough(fiba.Key{TS: cut, Seq: fiba.MaxSeq}, func(aux any) {
			delete(en.byMatch, aux.(*elemAux).matchKey)
		})
		if !en.speculative {
			continue
		}
		for e := range g.emitted {
			if e <= end {
				delete(g.emitted, e)
			}
		}
	}
	if n > 0 {
		en.elems -= n
		en.met.ObservePurge(n)
		if en.trace != nil {
			en.trace.Trace(obsv.TraceEvent{Op: obsv.OpPurge, Engine: en.traceName, TS: cut, N: n})
		}
	}
	en.dropEmpty()
}

// dropEmpty retires groups with no elements and no revisable previews.
func (en *Engine) dropEmpty() {
	kept := en.groups[:0]
	for _, g := range en.groups {
		if g.run.Size() == 0 && len(g.emitted) == 0 {
			delete(en.byKey, mapKey(g.key, g.has))
			continue
		}
		kept = append(kept, g)
	}
	clear(en.groups[len(kept):])
	en.groups = kept
}

// publishGauges refreshes the state gauges at call boundaries.
func (en *Engine) publishGauges() {
	// A run has no levels: the height gauge reads 1 while anything is live.
	en.met.AggTreeHeight.Set(int64(min(en.elems, 1)))
	en.met.AggElements.Set(int64(en.elems))
	en.met.LiveState.Set(int64(en.StateSize()))
	if en.spec.GroupSlot >= 0 {
		en.met.KeyGroups.Set(int64(len(en.groups)))
	}
}

// alignDown returns the largest multiple of slide that is <= ts.
func alignDown(ts, slide event.Time) event.Time {
	d := plan.AlignUp(ts, slide)
	if d > ts {
		d -= slide
	}
	return d
}
