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
//   - sealed (native, kslack, hybrid): a window (end−W, end] is
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
	"slices"

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
}

// Engine is the windowed-aggregation operator. It implements engine.Engine,
// in either mode.
type Engine struct {
	p     *plan.Plan
	spec  *plan.AggSpec
	inner engine.Engine
	// tap reports the operator's steps. Series and hook bind to the operator
	// itself: the inner engine's matches are consumed, not emitted, so the
	// outer series is the one that reflects the query's visible output. Its
	// sampler is the builder's to withhold: the inner strategy engine owns
	// the construction stage boundary.
	tap engine.Tap

	// speculative selects preview+revision emission; sealed otherwise.
	speculative bool
	// lateness is the bound L: no inner match can surface with a
	// completion timestamp older than clock − L.
	lateness event.Time

	// clock is the outer max-seen timestamp, the bottom of the time range
	// before the first event (so that event is never late, however low its
	// timestamp); arrival the outer event count (aggregate matches are
	// restamped against both).
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
	groups []*group
	byKey  map[event.Value]*group
	// elems is the number of live elements across all groups.
	elems int
	// dropped sums the run counters of the groups retired so far.
	dropped fiba.RunStats

	// prov builds lineage here, not in the inner engine, whose records
	// would never surface: each aggregate match cites the events of the
	// inner matches contributing to its window, capped at maxProvRefs.
	prov bool

	// res carves each call's matches and their window events from
	// append-only blocks, as the kernel does.
	res plan.Blocks
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
		clock:       math.MinInt64,
		byKey:       make(map[event.Value]*group),
		prov:        env.Provenance,
	}
	en.tap = env.Publish(en.Name())
	return en
}

// Name implements engine.Engine.
func (en *Engine) Name() string { return "agg(" + en.inner.Name() + ")" }

// StateSize implements engine.Engine: live elements plus inner state.
func (en *Engine) StateSize() int {
	return en.elems + en.inner.StateSize()
}

// Process implements engine.Engine.
func (en *Engine) Process(e event.Event) []plan.Match {
	out := en.processOne(e, en.res.Open())
	en.publishGauges()
	return en.res.Close(out)
}

// ProcessBatch implements engine.Engine: the per-event pipeline in
// a loop (each event can move the clock and seal windows whose emission
// metadata depends on that moment), sharing one output slice and deferring
// only gauge publication to the batch boundary.
func (en *Engine) ProcessBatch(batch []event.Event) []plan.Match {
	out := en.res.Open()
	for i := range batch {
		out = en.processOne(batch[i], out)
	}
	en.publishGauges()
	return en.res.Close(out)
}

// processOne admits one event: feed the inner engine, absorb the matches
// it emits into the runs, then advance the output frontiers under the
// (possibly) moved clock. Absorption runs before the clock advances so a
// match surfacing exactly at the lateness bound lands in its window before
// that window seals.
func (en *Engine) processOne(e event.Event, out []plan.Match) []plan.Match {
	en.arrival++
	en.tap.Admit(e, e.TS < en.clock, event.Lag(en.clock, e.TS))
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
	en.tap.Mark(obsv.OpHeartbeat, "", ts, 0)
	out := en.absorb(en.inner.Advance(ts), en.res.Open())
	if ts > en.clock {
		en.clock = ts
	}
	out = en.advanceOutput(out)
	en.publishGauges()
	return en.res.Close(out)
}

// Flush implements engine.Engine: absorb the inner engine's final matches,
// then emit every remaining window as final.
func (en *Engine) Flush() []plan.Match {
	out := en.absorb(en.inner.Flush(), en.res.Open())
	if en.speculative {
		out = en.previewTo(0, true, out)
	} else {
		out = en.sealTo(0, true, out)
	}
	en.reclaimAll()
	en.publishGauges()
	en.tap.Mark(obsv.OpFlush, "", en.clock, 0)
	return en.res.Close(out)
}

// Metrics implements engine.Engine: the operator's series, which carries
// the strategy's (the builder hands the strategy the operator's
// Series.Carry).
func (en *Engine) Metrics() obsv.Snapshot { return en.tap.Snapshot() }

// StateSnapshot implements engine.Engine. Safe is the inner engine's: the
// operator drops nothing itself, and its own clock runs ahead of the inner
// one on event types the pattern does not mention.
func (en *Engine) StateSnapshot() *provenance.StateSnapshot {
	inner := en.inner.StateSnapshot()
	s := &provenance.StateSnapshot{
		Engine:  en.tap.Name(),
		Started: en.arrival > 0,
		Clock:   en.clock,
		Safe:    inner.Safe,
		Pending: en.elems,
		Lineage: provenance.LineageStats{Enabled: en.prov},
	}
	if en.sealedInit {
		s.PurgeFrontier = en.purgeCut(en.sealed)
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
	s.Inner = inner
	s.StackDepths, s.StackShared = inner.StackDepths, inner.StackShared
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

// addElem maps one inner match to a run element and inserts it. An element
// is its timestamp and partial; with provenance on it also carries the
// citations of the events the match bound.
func (en *Engine) addElem(m plan.Match, out []plan.Match) []plan.Match {
	ts, part, gv, ok := en.spec.ElementOf(m, en.tap.IncPredError)
	if !ok {
		return out
	}
	g := en.byKey[mapKey(gv, en.spec.GroupSlot >= 0)]
	if g == nil {
		g = en.newGroup(gv, en.spec.GroupSlot >= 0)
	}
	var refs any
	if en.prov {
		refs = provenance.Refs(m.Events)
	}
	key := fiba.Key{TS: ts, Seq: en.elemSeq}
	en.elemSeq++
	en.tap.AggInserts.Inc()
	if g.run.Insert(key, part, refs) {
		en.tap.AggFingerHits.Inc()
	}
	en.elems++
	if en.speculative {
		out = en.reviseAround(g, ts, out)
	}
	return out
}

// removeElem deletes the element an inner retraction stands for: the first,
// in key order, of its group's elements at its timestamp with a bit-identical
// partial and, with provenance on, equal citations (failing that, a restored
// element, which has none). Equal elements give every window the same value,
// count and HAVING verdict. None found is benign: the match produced none
// (attribute error) or its window sealed and purged — in sealed mode the
// insert/retract pair lands before the seal, so nothing wrong was emitted.
func (en *Engine) removeElem(m plan.Match, out []plan.Match) []plan.Match {
	// No error sink: the insert counted the match's errors.
	ts, part, gv, ok := en.spec.ElementOf(m, nil)
	if !ok {
		return out
	}
	g := en.byKey[mapKey(gv, en.spec.GroupSlot >= 0)]
	if g == nil {
		return out
	}
	var refs []provenance.EventRef
	if en.prov {
		refs = provenance.Refs(m.Events)
	}
	var key, uncited fiba.Key
	found, hasUncited := false, false
	visit := func(k fiba.Key, p fiba.Partial, aux any) bool {
		if k.TS != ts {
			return false
		}
		if !samePartial(p, part) {
			return true
		}
		cited, _ := aux.([]provenance.EventRef)
		if slices.Equal(cited, refs) {
			key, found = k, true
			return false
		}
		if aux == nil && !hasUncited {
			uncited, hasUncited = k, true
		}
		return true
	}
	if ts == math.MinInt64 {
		g.run.All(visit) // ts − 1 would wrap; the elements at ts come first
	} else {
		g.run.Ascend(fiba.Key{TS: ts - 1, Seq: fiba.MaxSeq}, fiba.Key{TS: ts, Seq: fiba.MaxSeq}, visit)
	}
	if !found {
		if !hasUncited {
			return out
		}
		key = uncited
	}
	g.run.Delete(key)
	en.elems--
	if en.speculative {
		out = en.reviseAround(g, ts, out)
	}
	return out
}

// samePartial reports whether two partials are bit for bit the same: a float
// sum by its bits, MIN and MAX by kind and bits (as a Partial holds them), so
// NaN finds NaN and Int(3) stays apart from Float(3.0).
func samePartial(a, b fiba.Partial) bool {
	sa, sb := math.Float64bits(a.SumF), math.Float64bits(b.SumF)
	a.SumF, b.SumF = 0, 0
	return sa == sb && a == b
}

// newGroup registers an empty group. Its run's margin is how far behind the
// furthest window end read so far a later read, insert or delete can fall:
// nothing in sealed mode, where a window is read once and every later element
// is past its end; the lateness bound plus one slide in speculative mode,
// where a late element re-reads the previewed windows that contain it (the
// slide keeps an element exactly at the bound on the covered side).
func (en *Engine) newGroup(key event.Value, has bool) *group {
	g := &group{key: key, has: has}
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
		en.reclaim(event.SubSat(en.clock, en.lateness))
		return out
	}
	return en.sealTo(event.SubSat(en.clock, en.lateness), false, out)
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
	end := alignDown(event.SubSat(watermark, 1), en.spec.Slide)
	if en.sealedInit && end <= en.sealed {
		return
	}
	en.sealed, en.sealedInit = end, true
	en.purgeFor(end)
}

// reclaimAll drops every element and group after a flush.
func (en *Engine) reclaimAll() {
	if en.elems > 0 {
		en.tap.Purge(en.clock, en.elems)
	}
	en.dropped = en.RunStats()
	en.groups, en.elems = nil, 0
	en.byKey = make(map[event.Value]*group)
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
	if cursor == math.MaxInt64 {
		// The last end of the time range: none follows.
		return 0, false
	}
	end := event.AddSat(cursor, slide)
	var m event.Time
	var ok bool
	if en.bottomless(end) {
		m, ok = en.minElemTS()
	} else {
		m, ok = en.firstAfter(en.windowStart(end))
	}
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
		av := en.windowValue(g, end)
		if av == nil {
			continue
		}
		en.tap.AggWindows.Inc()
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
	hi := fiba.Key{TS: end, Seq: fiba.MaxSeq}
	var part fiba.Partial
	if en.bottomless(end) {
		part = g.run.QueryThrough(hi)
	} else {
		part = g.run.Query(fiba.Key{TS: en.windowStart(end), Seq: fiba.MaxSeq}, hi)
	}
	v, n, ok := en.spec.Result(part)
	if !ok {
		return nil
	}
	av := en.aggValue(g, end, v, n)
	if !en.spec.EvalHaving(av, en.tap.IncPredError) {
		return nil
	}
	return av
}

// aggValue is group g's value v over n elements for the window ending at end.
func (en *Engine) aggValue(g *group, end event.Time, v event.Value, n int64) *plan.AggValue {
	return &plan.AggValue{
		Func:        string(en.spec.Func),
		WindowStart: en.windowStart(end),
		WindowEnd:   end,
		Group:       g.key,
		HasGroup:    g.has,
		Value:       v,
		Count:       n,
	}
}

// reviseAround re-evaluates every already-previewed window an element at
// ts falls in (speculative mode), emitting retract+insert pairs where the
// previewed value changed.
func (en *Engine) reviseAround(g *group, ts event.Time, out []plan.Match) []plan.Match {
	if !en.previewInit {
		return out
	}
	for end := plan.AlignUp(ts, en.spec.Slide); end <= en.previewed && en.startsBefore(end, ts); end += en.spec.Slide {
		out = en.revise(g, end, out)
		if end > math.MaxInt64-en.spec.Slide {
			break // the last end of the time range
		}
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
		en.tap.AggWindows.Inc()
		g.emitted[end] = nv
		out = en.emit(g, nv, plan.Insert, out)
	case nv == nil:
		en.tap.AggRevisions.Inc()
		delete(g.emitted, end)
		out = en.emit(g, old, plan.Retract, out)
	case old.Same(nv):
	default:
		en.tap.AggRevisions.Inc()
		g.emitted[end] = nv
		out = en.emit(g, old, plan.Retract, out)
		out = en.emit(g, nv, plan.Insert, out)
	}
	return out
}

// emit builds and accounts one aggregate match.
func (en *Engine) emit(g *group, av *plan.AggValue, kind plan.MatchKind, out []plan.Match) []plan.Match {
	window := [1]event.Event{plan.WindowEvent(av.WindowEnd)}
	m := plan.Match{
		Kind:      kind,
		Events:    en.res.Events(window[:]),
		EmitSeq:   event.Seq(en.arrival),
		EmitClock: en.clock,
		Agg:       av,
	}
	if en.prov {
		m.Prov = en.record(g, av, kind)
	}
	en.tap.Emit(&m, en.clock-av.WindowEnd, 0)
	return en.res.Append(out, m)
}

// record builds the lineage record for one aggregate match: the window
// bounds, the group key, and the citations of the events whose matches
// contribute to the window, capped at maxProvRefs.
func (en *Engine) record(g *group, av *plan.AggValue, kind plan.MatchKind) *provenance.Record {
	r := &provenance.Record{
		Kind:      provenance.KindInsert,
		WindowLo:  av.WindowStart,
		WindowHi:  av.WindowEnd,
		SealTS:    event.AddSat(av.WindowEnd, en.lateness),
		EmitClock: en.clock,
	}
	if kind == plan.Retract {
		r.Kind = provenance.KindRetract
	}
	if av.HasGroup {
		r.Key = av.Group.String()
		r.KeyAttr = en.spec.GroupAttr
	}
	hi := fiba.Key{TS: av.WindowEnd, Seq: fiba.MaxSeq}
	cite := func(k fiba.Key, _ fiba.Partial, aux any) bool {
		if hi.Less(k) {
			return false
		}
		refs, _ := aux.([]provenance.EventRef)
		if len(refs) == 0 || len(r.Events)+len(refs) > maxProvRefs {
			// Elements restored from a checkpoint carry no citations;
			// either way the record is an undercount, so mark it.
			r.Truncated = true
			return len(refs) == 0
		}
		r.Events = append(r.Events, refs...)
		return true
	}
	if en.bottomless(av.WindowEnd) {
		g.run.All(cite)
	} else {
		g.run.Ascend(fiba.Key{TS: av.WindowStart, Seq: fiba.MaxSeq}, hi, cite)
	}
	return r
}

// purgeFor removes elements that can never contribute to a window past
// end (ts <= end + slide − W) and in speculative mode forgets preview
// records for sealed windows.
func (en *Engine) purgeFor(end event.Time) {
	cut := en.purgeCut(end)
	// The next grid window holds every element through its end when it
	// starts below the time range: nothing is dead yet. (end itself may be
	// off the grid: reclaim saturates it at the bottom of the range.)
	live := en.bottomless(plan.AlignUp(event.AddSat(end, 1), en.spec.Slide))
	n := 0
	for _, g := range en.groups {
		if !live {
			n += g.run.PurgeThrough(fiba.Key{TS: cut, Seq: fiba.MaxSeq}, nil)
		}
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
		en.tap.Purge(cut, n)
	}
	en.dropEmpty()
}

// windowStart is the exclusive start of the window ending at end: end − W,
// saturated at the bottom of the time range (where the window is
// bottomless). An end saturated at the top (plan.AlignUp) stands for the
// first grid end past the range, whose window starts one slide after the
// last grid end in it.
func (en *Engine) windowStart(end event.Time) event.Time {
	if slide := en.spec.Slide; end == math.MaxInt64 && end%slide != 0 {
		return alignDown(end, slide) - (en.p.Window - slide)
	}
	return event.SubSat(end, en.p.Window)
}

// bottomless reports that the window ending at end starts below the time
// range: end − W saturates, and the window holds every element through end,
// those at MinInt64 included, which its saturated start would exclude.
func (en *Engine) bottomless(end event.Time) bool {
	return end < math.MinInt64+en.p.Window
}

// startsBefore reports that the window ending at end starts before ts: an
// element at ts lies in it when ts <= end.
func (en *Engine) startsBefore(end, ts event.Time) bool {
	return en.bottomless(end) || en.windowStart(end) < ts
}

// purgeCut is the latest element timestamp no window past end can hold:
// end + slide − W, saturated at the ends of the time range.
func (en *Engine) purgeCut(end event.Time) event.Time {
	return event.SubSat(event.AddSat(end, en.spec.Slide), en.p.Window)
}

// dropEmpty retires groups with no elements and no revisable previews.
func (en *Engine) dropEmpty() {
	kept := en.groups[:0]
	for _, g := range en.groups {
		if g.run.Size() == 0 && len(g.emitted) == 0 {
			delete(en.byKey, mapKey(g.key, g.has))
			en.dropped = en.dropped.Plus(g.run.Stats())
			continue
		}
		kept = append(kept, g)
	}
	clear(en.groups[len(kept):])
	en.groups = kept
}

// RunStats sums the counters of every run the operator has kept, those of
// retired groups included.
func (en *Engine) RunStats() fiba.RunStats {
	s := en.dropped
	for _, g := range en.groups {
		s = s.Plus(g.run.Stats())
	}
	return s
}

// publishGauges refreshes the state gauges at call boundaries.
func (en *Engine) publishGauges() {
	// A run has no levels: the height gauge reads 1 while anything is live.
	en.tap.AggTreeHeight.Set(int64(min(en.elems, 1)))
	en.tap.AggElements.Set(int64(en.elems))
	en.tap.LiveState.Set(int64(en.StateSize()))
	if en.spec.GroupSlot >= 0 {
		en.tap.KeyGroups.Set(int64(len(en.groups)))
	}
}

// alignDown returns the largest multiple of slide that is <= ts, or the
// bottom of the time range when that multiple lies below it.
func alignDown(ts, slide event.Time) event.Time {
	d := ts / slide * slide // toward zero: up, for a negative ts
	if d > ts {
		d = event.SubSat(d, slide)
	}
	return d
}
