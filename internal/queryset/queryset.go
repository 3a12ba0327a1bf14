// Package queryset implements the multi-query dispatcher: many compiled
// queries evaluated over one event stream, with each event admitted,
// reordered, and purge-scheduled once instead of once per query.
//
// The naive tenant-scale deployment — one engine per query, every event
// offered to every engine — pays N admission checks, N reorder buffers,
// and N clock advances per event. A QuerySet is one K-slack levee
// (internal/kslack) in front of a Set, which shares the rest:
//
//   - The levee admits the stream, drops bound violators and releases
//     runs in (timestamp, sequence) order, so every per-query inner engine
//     runs with K=0: disorder tolerance is paid once, and the engines run
//     in cheap near-in-order mode with a tight purge horizon.
//   - An event-type index maps each event type to the queries whose
//     positive or negated components can consume it; an event whose type no
//     registered query mentions costs one map lookup.
//   - Prefix gating skips queries whose pattern cannot have started: a
//     query is probed with a non-initial component type only once its first
//     positive component type has been seen in-window for that event's key
//     group. Gating is sound only because the dispatched stream is sorted
//     (the levee guarantees it); leading negations (GapAfter 0) are exempt,
//     since their events precede the anchor they guard.
//   - One watermark, the levee's, fans a periodic Advance to every engine,
//     sealing deferred negation output and driving state purges — one
//     clock, one purge frontier, N consumers.
//
// Correctness is differential: the Multi mode of internal/difftest proves a QuerySet's
// per-query output equals N independent single-query engines (and the
// brute-force oracle), across live Register/Unregister, batch
// ingestion, and supervised kill/recover (see checkpoint.go).
package queryset

import (
	"fmt"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// DefaultAdvanceEvery is the default fan-out cadence: after this many
// dispatched events the Set advances every engine to the watermark, sealing
// negation output and purging state through quiet queries.
const DefaultAdvanceEvery = 256

// Options configure a Set.
type Options struct {
	// AdvanceEvery is the fan-out cadence in dispatched events; 0 means
	// DefaultAdvanceEvery. It trades sealing/purge latency for per-event
	// cost and never affects final output.
	AdvanceEvery int
	// Watermark reports the release watermark of the levee in front, to
	// which the fan-out advances every engine: nothing it releases later is
	// below it. Required.
	Watermark func() event.Time
	// Env carries the Set's own instruments: the series its irrelevant-type
	// count publishes into (the levee's Series.Carry) and the latency
	// sampler on which each query's construct segment is stamped. The trace
	// hook and the provenance switch are not the Set's: the NewEngine and
	// RestoreEngine factories build every per-query engine with them.
	Env engine.Env
	// NewEngine builds the inner engine for a registered query. Required.
	// It MUST build the engine with a zero disorder bound (the levee
	// carries all slack) and with the query's own Env (the facade names its
	// series "qs/<id>").
	NewEngine func(id string, p *plan.Plan) (engine.Engine, error)
	// Compile recompiles a query source during Restore. Only required by
	// Restore.
	Compile func(src string) (*plan.Plan, error)
	// RestoreEngine rebuilds an inner engine from its sections of a
	// checkpoint, with the same Env NewEngine would give it. Only required by
	// Restore.
	RestoreEngine func(id string, p *plan.Plan, s *engine.Sections) (engine.Engine, error)
	// QuerySeries resolves a registered query's observability series, used
	// to attribute per-query construct time when Env.Latency is set.
	// Optional; nil keeps attribution on the shared series only.
	QuerySeries func(id string) *obsv.Series
}

// Set is the multi-query dispatcher. It implements engine.Engine over a
// sorted stream, with every emitted match tagged with the owning query's id
// (Match.Query), so a levee in front of it makes it a whole QuerySet.
//
// Sets are not safe for concurrent use, like every engine.
type Set struct {
	opts    Options
	queries map[string]*queryState
	order   []*queryState // registration order (dispatch determinism)
	index   map[string][]dispatch
	nextReg uint64

	sinceAdvance int
	// size is the registered engines' StateSize summed, kept current at
	// every call into one (queryState.size is each query's share).
	size   int
	sealed bool
	// tap holds opts.Env: the Set reports no lifecycle step, its series
	// counts events of a type no query reads, and its sampler stamps each
	// query's construct segment.
	tap engine.Tap
}

// dispatch is one (event type → query) index entry.
type dispatch struct {
	q *queryState
	// opens marks the query's first positive component type: seeing it
	// opens the prefix gate for the event's key group.
	opens bool
	// gated marks types dispatched only when the gate is open.
	gated bool
}

// queryState is one registered query's runtime state.
type queryState struct {
	id  string
	reg uint64 // registration sequence, monotone per Set
	p   *plan.Plan
	en  engine.Engine
	// series receives this query's construct-stage attribution (resolved
	// via Options.QuerySeries; nil when unconfigured).
	series *obsv.Series
	size   int

	// Prefix gate: the last timestamp the first positive component type
	// was seen, per key group (keyAttr != "") or globally. An event opens
	// the gate for queries probed by later component types within Window.
	keyAttr    string
	gateByKey  map[event.Value]event.Time
	gateAll    event.Time
	gateAllSet bool

	dispatched uint64
	skipped    uint64
}

// New builds an empty Set.
func New(opts Options) (*Set, error) {
	if opts.NewEngine == nil || opts.Watermark == nil {
		return nil, fmt.Errorf("queryset: Options.NewEngine and Options.Watermark are required")
	}
	if opts.AdvanceEvery < 0 {
		return nil, fmt.Errorf("queryset: AdvanceEvery must be >= 0, got %d", opts.AdvanceEvery)
	}
	if opts.AdvanceEvery == 0 {
		opts.AdvanceEvery = DefaultAdvanceEvery
	}
	s := &Set{
		opts:    opts,
		queries: make(map[string]*queryState),
		index:   make(map[string][]dispatch),
		tap:     opts.Env.Publish("queryset"),
	}
	return s, nil
}

// Register adds a compiled query under the given id and returns an error
// on a duplicate or empty id or a sealed Set. The query observes events
// dispatched after registration; events still held in the levee in front
// are among them, already-released ones are not replayed into it.
func (s *Set) Register(id string, p *plan.Plan) error {
	if s.sealed {
		return fmt.Errorf("queryset: Register after Flush; the stream is sealed")
	}
	if id == "" {
		return fmt.Errorf("queryset: query id must be non-empty")
	}
	if p == nil {
		return fmt.Errorf("queryset: query plan must be non-nil")
	}
	if _, dup := s.queries[id]; dup {
		return fmt.Errorf("queryset: query id %q already registered", id)
	}
	en, err := s.opts.NewEngine(id, p)
	if err != nil {
		return err
	}
	s.attach(&queryState{id: id, p: p, en: en})
	return nil
}

// attach wires a built queryState into the registry and type index,
// assigning its registration sequence. Shared by Register and Restore.
func (s *Set) attach(q *queryState) {
	s.nextReg++
	q.reg = s.nextReg
	q.keyAttr = q.p.PartitionKey
	if s.opts.QuerySeries != nil {
		q.series = s.opts.QuerySeries(q.id)
	}
	if q.keyAttr != "" {
		q.gateByKey = make(map[event.Value]event.Time)
	}
	s.queries[q.id] = q
	s.order = append(s.order, q) // nextReg is monotone: stays reg-sorted
	s.track(q)

	// Index the query's relevant types. The first positive component type
	// and leading-negation types are never gated: the former starts
	// patterns (and opens the gate), the latter precede the anchor whose
	// gap they guard, so gating them would lose invalidations.
	first := q.p.Positives[0].Type
	ungated := map[string]bool{first: true}
	for _, n := range q.p.Negatives {
		if n.GapAfter == 0 {
			ungated[n.Type] = true
		}
	}
	entries := make(map[string]dispatch)
	for _, step := range q.p.Positives {
		entries[step.Type] = dispatch{q: q, opens: step.Type == first, gated: !ungated[step.Type]}
	}
	for _, n := range q.p.Negatives {
		if _, done := entries[n.Type]; !done {
			entries[n.Type] = dispatch{q: q, opens: false, gated: !ungated[n.Type]}
		}
	}
	for typ, d := range entries {
		s.index[typ] = append(s.index[typ], d)
	}
}

// track refreshes q's share of the summed state size after a call into
// its engine.
func (s *Set) track(q *queryState) {
	n := q.en.StateSize()
	s.size += n - q.size
	q.size = n
}

// Unregister removes a query, finalizes it against the events dispatched
// so far (events still held in the levee in front are not seen — Advance
// it first to drain up to a known horizon), and returns its final matches,
// tagged. Unknown ids and sealed Sets return an error.
func (s *Set) Unregister(id string) ([]plan.Match, error) {
	if s.sealed {
		return nil, fmt.Errorf("queryset: Unregister after Flush; the stream is sealed")
	}
	q, ok := s.queries[id]
	if !ok {
		return nil, fmt.Errorf("queryset: query id %q is not registered", id)
	}
	var out []plan.Match
	s.tag(q, q.en.Flush(), &out)
	s.size -= q.size
	delete(s.queries, id)
	for i, o := range s.order {
		if o == q {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	for typ, ds := range s.index {
		kept := ds[:0]
		for _, d := range ds {
			if d.q != q {
				kept = append(kept, d)
			}
		}
		if len(kept) == 0 {
			delete(s.index, typ)
		} else {
			s.index[typ] = kept
		}
	}
	return out, nil
}

// Queries returns the registered query ids in registration order.
func (s *Set) Queries() []string {
	ids := make([]string, len(s.order))
	for i, q := range s.order {
		ids[i] = q.id
	}
	return ids
}

// QueryMetrics returns the inner engine counters of one registered query.
func (s *Set) QueryMetrics(id string) (obsv.Snapshot, bool) {
	q, ok := s.queries[id]
	if !ok {
		return obsv.Snapshot{}, false
	}
	return q.en.Metrics(), true
}

// QueryStats is one query's dispatch accounting: how many released events
// the index offered to its engine and how many the prefix gate skipped.
type QueryStats struct {
	ID         string
	Dispatched uint64
	Skipped    uint64
}

// Stats returns per-query dispatch accounting in registration order.
func (s *Set) Stats() []QueryStats {
	out := make([]QueryStats, len(s.order))
	for i, q := range s.order {
		out[i] = QueryStats{ID: q.id, Dispatched: q.dispatched, Skipped: q.skipped}
	}
	return out
}

// Name implements engine.Engine.
func (s *Set) Name() string { return "queryset" }

// Process dispatches one event, as a run of one.
func (s *Set) Process(e event.Event) []plan.Match { return s.ProcessBatch([]event.Event{e}) }

// ProcessBatch implements engine.Engine: every event of a sorted run is
// dispatched through the type index to the gated subset of registered
// engines, and the returned matches are tagged with their query id
// (Match.Query). A nil or empty batch is a documented no-op returning nil.
func (s *Set) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	for i := range batch {
		s.dispatch(batch[i], &out)
	}
	// The cadence check sits between released runs, never inside one (fan
	// moves the K=0 engines to the watermark: the run's undispatched tail
	// would be late), and skips the run a flush releases above it: that
	// goes to each query's Flush unfanned, query by query.
	if n := len(batch); n > 0 && s.sinceAdvance >= s.opts.AdvanceEvery && batch[n-1].TS <= s.opts.Watermark() {
		s.fan(s.opts.Watermark(), &out)
	}
	return out
}

// dispatch routes one (sorted-order) event through the type index. Inner
// engines run at K=0 and never see disorder, so no per-query clock
// synchronization is needed before Process.
func (s *Set) dispatch(e event.Event, out *[]plan.Match) {
	ds := s.index[e.Type]
	if len(ds) == 0 {
		s.tap.Irrelevant.Inc()
	}
	for _, d := range ds {
		q := d.q
		if d.opens {
			q.openGate(e)
		}
		if d.gated && !q.gateOpen(e) {
			q.skipped++
			continue
		}
		q.dispatched++
		s.tag(q, q.en.Process(e), out)
		s.track(q)
		// Each query's Process closes a construct segment mirrored into
		// that query's own series.
		s.tap.Spans.StageInto(q.series, e.Seq, obsv.StageConstruct)
	}
	s.sinceAdvance++
}

// openGate records a first-component occurrence for the event's key group.
func (q *queryState) openGate(e event.Event) {
	if q.keyAttr == "" {
		q.gateAll, q.gateAllSet = e.TS, true
		return
	}
	if key, ok := plan.KeyOf(e, q.keyAttr); ok {
		q.gateByKey[key] = e.TS
	}
}

// gateOpen reports whether the query can be probed with e: its first
// positive component type was seen within Window for e's key group.
// Events without the key attribute pass ungated — they cannot be proven
// irrelevant cheaply, and correctness beats a skipped probe.
func (q *queryState) gateOpen(e event.Event) bool {
	horizon := event.SubSat(e.TS, q.p.Window)
	if q.keyAttr == "" {
		return q.gateAllSet && q.gateAll >= horizon
	}
	key, ok := plan.KeyOf(e, q.keyAttr)
	if !ok {
		return true
	}
	ts, seen := q.gateByKey[key]
	return seen && ts >= horizon
}

// fan advances every engine to the watermark wm — one clock and purge
// frontier computation fanned out to N consumers — and prunes dead prefix
// gate entries. Purely a latency/memory action: it never changes output
// multisets (heartbeat-insertion invariance, I9).
func (s *Set) fan(wm event.Time, out *[]plan.Match) {
	s.sinceAdvance = 0
	for _, q := range s.order {
		s.tag(q, q.en.Advance(wm), out)
		s.track(q)
		// A gate entry opens probes for events with TS ≤ entry + Window;
		// future releases have TS ≥ wm, so older entries are dead.
		if q.keyAttr != "" {
			for key, ts := range q.gateByKey {
				if event.AddSat(ts, q.p.Window) < wm {
					delete(q.gateByKey, key)
				}
			}
		}
	}
}

// Advance implements engine.Engine: the levee has moved its watermark to
// ts, and every engine is immediately advanced to it (sealing deferred
// negation output through silent periods).
func (s *Set) Advance(ts event.Time) []plan.Match {
	var out []plan.Match
	s.fan(ts, &out)
	return out
}

// Flush implements engine.Engine: every query is finalized, in
// registration order. The Set is sealed afterwards.
func (s *Set) Flush() []plan.Match {
	var out []plan.Match
	for _, q := range s.order {
		s.tag(q, q.en.Flush(), &out)
		s.track(q)
	}
	s.sealed = true
	return out
}

// tag stamps matches with the owning query id and appends them.
func (s *Set) tag(q *queryState, ms []plan.Match, out *[]plan.Match) {
	for i := range ms {
		ms[i].Query = q.id
	}
	*out = append(*out, ms...)
}

// Metrics implements engine.Engine with the Set's own series: the events
// no registered query could consume. The levee in front counts the rest;
// per-query engine counters are available via QueryMetrics.
func (s *Set) Metrics() obsv.Snapshot { return s.tap.Snapshot() }

// StateSize implements engine.Engine: the state of every registered engine.
func (s *Set) StateSize() int { return s.size }

// StateSnapshot implements engine.Engine: per-query snapshots in
// registration order, aggregated under the set's name (provenance.Aggregate).
func (s *Set) StateSnapshot() *provenance.StateSnapshot {
	subs := make([]*provenance.StateSnapshot, len(s.order))
	for i, q := range s.order {
		subs[i] = q.en.StateSnapshot()
	}
	return provenance.Aggregate(s.Name(), subs)
}
