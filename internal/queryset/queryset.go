// Package queryset implements the shared-admission multi-query runtime:
// many compiled queries evaluated over one event stream, with each event
// admitted, reordered, and purge-scheduled once instead of once per query.
//
// The naive tenant-scale deployment — one engine per query, every event
// offered to every engine — pays N admission checks, N reorder buffers,
// and N clock advances per event. A Set shares that work:
//
//   - One K-slack reorder buffer admits the stream. Released events are in
//     (timestamp, sequence) order, so every per-query inner engine runs
//     with K=0: disorder tolerance is paid once, at the shared buffer, and
//     the engines run in cheap near-in-order mode with a tight purge
//     horizon. Bound violators are dropped once, under the same inclusive
//     watermark rule the single-engine admission layers use.
//   - An event-type index maps each event type to the queries whose
//     positive or negated components can consume it; an event whose type no
//     registered query mentions costs one map lookup.
//   - Prefix gating skips queries whose pattern cannot have started: a
//     query is probed with a non-initial component type only once its first
//     positive component type has been seen in-window for that event's key
//     group. Gating is sound only because the dispatched stream is sorted
//     (the shared buffer guarantees it); leading negations (GapAfter 0)
//     are exempt, since their events precede the anchor they guard.
//   - One watermark computation fans a periodic Advance to every engine,
//     sealing deferred negation output and driving state purges — one
//     clock, one purge frontier, N consumers.
//
// Correctness is differential: internal/difftest.RunMulti proves a Set's
// per-query output equals N independent single-query engines (and the
// brute-force oracle), across live Register/Unregister, batch
// ingestion, and supervised kill/recover via the v2 checkpoint format
// (see checkpoint.go).
package queryset

import (
	"fmt"
	"io"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/kslack"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// DefaultAdvanceEvery is the default fan-out cadence: after this many
// released events the Set advances every engine to the shared watermark,
// sealing negation output and purging state through quiet queries.
const DefaultAdvanceEvery = 256

// Options configure a Set.
type Options struct {
	// K is the shared disorder bound (slack) in logical milliseconds. The
	// Set's reorder buffer tolerates arrivals up to K behind the maximum
	// timestamp seen; inner engines run at K=0 on the sorted output.
	K event.Time
	// AdvanceEvery is the watermark fan-out cadence in released events;
	// 0 means DefaultAdvanceEvery. It trades sealing/purge latency for
	// per-event cost and never affects final output.
	AdvanceEvery int
	// Env carries the Set's own instruments: the series its shared-admission
	// counters publish into and the latency sampler. The Set stamps
	// shared-buffer residency and per-query construct segments on sampled
	// spans itself; inner engines never see the sampler (they run at K=0 on
	// the sorted stream and add no further buffering). The trace hook and
	// the provenance switch are not the Set's: the NewEngine and
	// RestoreEngine factories build every per-query engine with them.
	Env engine.Env
	// NewEngine builds the inner engine for a registered query. Required.
	// It MUST build the engine with a zero disorder bound (the shared
	// buffer carries all slack) and with the query's own Env (the facade
	// names its series "qs/<id>").
	NewEngine func(id string, p *plan.Plan) (engine.Engine, error)
	// Compile recompiles a query source during Restore. Only required by
	// Restore.
	Compile func(src string) (*plan.Plan, error)
	// RestoreEngine rebuilds an inner engine from its checkpoint blob, with
	// the same Env NewEngine would give it. Only required by Restore.
	RestoreEngine func(id string, p *plan.Plan, r io.Reader) (engine.Engine, error)
	// QuerySeries resolves a registered query's observability series, used
	// to attribute per-query construct time when Env.Latency is set.
	// Optional; nil keeps attribution on the shared series only.
	QuerySeries func(id string) *obsv.Series
}

// Set is the multi-query runtime. It implements engine.Engine, with every
// emitted match tagged with the owning query's id (Match.Query), so it
// drops into the supervised runtime and pipelines unchanged.
//
// Sets are not safe for concurrent use, like every engine.
type Set struct {
	opts    Options
	buf     *kslack.Buffer
	queries map[string]*queryState
	order   []*queryState // registration order (dispatch determinism)
	index   map[string][]dispatch
	nextReg uint64

	lastDropped uint64 // buffer drop count at last Push, for metrics
	// arrival counts the events offered to the Set: with the buffer's
	// maximum timestamp it stamps what the K=0 engines emit (kslack.Restamp),
	// so a match's emission instant includes its wait in the shared buffer.
	arrival      uint64
	sinceAdvance int
	sealed       bool
	met          *obsv.Series
	// lat is opts.Env.Latency (nil-safe at every stamp site).
	lat *obsv.LatencySampler
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
	if opts.NewEngine == nil {
		return nil, fmt.Errorf("queryset: Options.NewEngine is required")
	}
	if opts.K < 0 {
		return nil, fmt.Errorf("queryset: K must be >= 0, got %d", opts.K)
	}
	if opts.AdvanceEvery < 0 {
		return nil, fmt.Errorf("queryset: AdvanceEvery must be >= 0, got %d", opts.AdvanceEvery)
	}
	if opts.AdvanceEvery == 0 {
		opts.AdvanceEvery = DefaultAdvanceEvery
	}
	s := &Set{
		opts:    opts,
		buf:     kslack.NewBuffer(opts.K),
		queries: make(map[string]*queryState),
		index:   make(map[string][]dispatch),
		lat:     opts.Env.Latency,
	}
	s.met, _ = opts.Env.Publish("queryset")
	return s, nil
}

// Register adds a compiled query under the given id and returns an error
// on a duplicate or empty id or a sealed Set. The query observes events
// released from the shared buffer after registration; buffered and
// already-released events are not replayed into it.
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

// Unregister removes a query, finalizes it against the events released so
// far (events still held in the shared reorder buffer are not seen — call
// Advance first to drain up to a known horizon), and returns its final
// matches, tagged. Unknown ids and sealed Sets return an error.
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

// Len returns the number of registered queries.
func (s *Set) Len() int { return len(s.order) }

// Plan returns the registered query's compiled plan.
func (s *Set) Plan(id string) (*plan.Plan, bool) {
	q, ok := s.queries[id]
	if !ok {
		return nil, false
	}
	return q.p, true
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

// Process admits one event: it enters the shared reorder buffer, and
// every event the watermark releases is dispatched through the type index
// to the gated subset of registered engines. Returned matches are tagged
// with their query id (Match.Query). A sealed Set takes nothing: after Flush
// Process and Advance return nil (the facade refuses them first, and records
// why).
func (s *Set) Process(e event.Event) []plan.Match {
	var out []plan.Match
	s.process(e, &out)
	return out
}

// ProcessBatch implements engine.Engine. A nil or empty batch is
// a documented no-op returning nil. Output is identical to per-event
// Process calls, including the watermark fan-out cadence, so the batch
// path amortizes only call and output-slice overhead.
func (s *Set) ProcessBatch(batch []event.Event) []plan.Match {
	if len(batch) == 0 {
		return nil
	}
	var out []plan.Match
	for _, e := range batch {
		s.process(e, &out)
	}
	return out
}

func (s *Set) process(e event.Event, out *[]plan.Match) {
	if s.sealed {
		return
	}
	s.arrival++
	maxSeen, started := s.buf.MaxSeen()
	ooo := started && e.TS < maxSeen
	var lag event.Time
	if ooo {
		lag = maxSeen - e.TS
	}
	s.met.IncIn(ooo, lag)
	s.lat.Hold(e.Seq)
	released := s.buf.Push(e)
	if d := s.buf.Dropped(); d != s.lastDropped {
		s.lastDropped = d
		s.lat.Abandon(e.Seq)
		s.met.EventsLate.Inc()
		s.met.EventsDropped.Inc()
		return
	}
	for _, r := range released {
		s.dispatch(r, out)
	}
	// The cadence check sits here — between release batches, never inside
	// one. fan advances inner engines to the shared watermark, and every
	// event of the current batch is at or below that watermark: advancing
	// mid-batch would make the K=0 inner buffers drop the batch's
	// still-undispatched tail as late.
	if s.sinceAdvance >= s.opts.AdvanceEvery {
		s.fan(out)
	}
}

// dispatch routes one released (sorted-order) event through the type
// index. Inner engines run at K=0 and never see disorder, so no per-query
// clock synchronization is needed before Process.
func (s *Set) dispatch(e event.Event, out *[]plan.Match) {
	// Release closes the buffer stage; each query's Process closes a
	// construct segment mirrored into that query's own series; FinishHeld
	// seals the span here at dispatch end (the residual send time after the
	// Set returns is not observable from inside it).
	s.lat.StageEnd(e.Seq, obsv.StageBuffer)
	ds := s.index[e.Type]
	if len(ds) == 0 {
		s.met.Irrelevant.Inc()
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
		s.lat.StageInto(q.series, e.Seq, obsv.StageConstruct)
	}
	s.sinceAdvance++
	s.lat.FinishHeld(e.Seq)
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
	horizon := e.TS - q.p.Window
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

// fan advances every engine to the shared watermark — one clock and purge
// frontier computation fanned out to N consumers — and prunes dead prefix
// gate entries. Purely a latency/memory action: it never changes output
// multisets (heartbeat-insertion invariance, I9).
func (s *Set) fan(out *[]plan.Match) {
	s.sinceAdvance = 0
	_, started := s.buf.MaxSeen()
	if !started {
		return
	}
	wm := s.buf.Watermark()
	for _, q := range s.order {
		s.tag(q, q.en.Advance(wm), out)
		// A gate entry opens probes for events with TS ≤ entry + Window;
		// future releases have TS ≥ wm, so older entries are dead.
		if q.keyAttr != "" {
			for key, ts := range q.gateByKey {
				if ts+q.p.Window < wm {
					delete(q.gateByKey, key)
				}
			}
		}
	}
	s.met.LiveState.Set(int64(s.StateSize()))
}

// Advance implements engine.Engine: the source promises stream time has
// reached ts. The shared buffer releases everything at or below ts − K,
// and every engine is immediately advanced to the new watermark (sealing
// deferred negation output through silent periods).
func (s *Set) Advance(ts event.Time) []plan.Match {
	if s.sealed {
		return nil
	}
	var out []plan.Match
	for _, r := range s.buf.Advance(ts) {
		s.dispatch(r, &out)
	}
	s.fan(&out)
	return out
}

// Flush implements engine.Engine: the shared buffer drains in sorted
// order and every query is finalized, in registration order. The Set is
// sealed afterwards.
func (s *Set) Flush() []plan.Match {
	if s.sealed {
		return nil
	}
	var out []plan.Match
	for _, r := range s.buf.Flush() {
		s.dispatch(r, &out)
	}
	for _, q := range s.order {
		s.tag(q, q.en.Flush(), &out)
	}
	s.sealed = true
	s.met.LiveState.Set(0)
	return out
}

// tag stamps matches with the owning query id and the Set's clock and
// arrival count, counts them on the Set's aggregate series, and appends
// them.
func (s *Set) tag(q *queryState, ms []plan.Match, out *[]plan.Match) {
	clock, _ := s.buf.MaxSeen()
	for _, m := range ms {
		m.Query = q.id
		kslack.Restamp(&m, clock, s.arrival)
		lat := m.EmitClock - m.Last().TS
		s.met.AddMatch(m.Kind == plan.Retract, lat, 0)
		*out = append(*out, m)
	}
}

// Metrics implements engine.Engine with the Set's shared-admission
// counters: events in/late/dropped at the shared buffer, irrelevant types,
// and the live-state gauge (buffer plus engines, refreshed at fan-out
// cadence). Per-query engine counters are available via QueryMetrics.
func (s *Set) Metrics() obsv.Snapshot { return s.met.Snapshot() }

// StateSize implements engine.Engine: buffered events plus the state of
// every registered engine.
func (s *Set) StateSize() int {
	n := s.buf.Len()
	for _, q := range s.order {
		n += q.en.StateSize()
	}
	return n
}

// StateSnapshot implements engine.Engine: per-query snapshots in
// registration order, aggregated under the set's name (provenance.Aggregate),
// with the shared buffer's occupancy added.
func (s *Set) StateSnapshot() *provenance.StateSnapshot {
	subs := make([]*provenance.StateSnapshot, len(s.order))
	for i, q := range s.order {
		subs[i] = q.en.StateSnapshot()
	}
	snap := provenance.Aggregate(s.Name(), subs)
	snap.BufferLen += s.buf.Len()
	return snap
}
