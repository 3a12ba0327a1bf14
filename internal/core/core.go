// Package core implements the paper's contribution: a sequence scan and
// construction (SSC) operator that handles out-of-order data arrival
// natively, instead of reordering the stream in front of an order-assuming
// engine.
//
// The engine keeps the Active Instance Stacks sorted by timestamp
// (internal/ais): an out-of-order event is inserted at its timestamp-correct
// position, and construction finds each predecessor by binary search, so no
// pointer needs repair. Construction is *trigger-based*: every match is
// enumerated exactly once, when its last-ARRIVING member is inserted. Three
// trigger rules make that exact:
//
//   - an event landing at the final pattern position always triggers
//     (classic behaviour: it can complete matches as their last element);
//   - an out-of-order event landing at any other position triggers a
//     middle-out enumeration — binding its own position first, then earlier
//     positions walking down, then later positions walking up — restricted
//     to instances already in the stacks, i.e. to events that arrived
//     before it;
//   - an in-order event at a non-final position never triggers: no event
//     with a larger timestamp can already be in the stacks, so no match can
//     complete through it. (The scan optimization of the paper; disable
//     with Options.DisableTriggerOpt for the ablation experiment.)
//
// All state lives in key groups (ais.KeyedStacks, one negative store — an
// ais.Stack — per negation and group): insertion, construction, and negation
// probes touch only the trigger's group. When the plan proves the query
// partitionable by an equivalence attribute (plan.PartitionKey, e.g. the
// item id of the RFID query's `s.id = e.id AND s.id = c.id` chain), an
// event's group is its value of that attribute, and the key-equality cross
// predicates are skipped as structurally pre-satisfied: every match binds
// events of one key, so the groups enumerate exactly the ungrouped result
// set while probing a fraction of the state. Without such an attribute
// every event files under the zero Value: one group, every predicate
// evaluated.
//
// Correct output for negation cannot be produced eagerly under disorder: a
// qualifying negative event may still be in flight. The engine relies on
// the paper's bounded-disorder assumption — no event is delayed more than K
// time units past the maximum timestamp seen (K-slack) — and defers each
// candidate match until the safe clock (maxTS − K) passes the end of its
// negation gaps, at which point every relevant negative has arrived.
//
// That deferral is one of two emission policies over the same stacks,
// negative stores, construction walk, and purge (Options.Emit). Under
// EmitThenRetract — the aggressive alternative the paper sketches and the
// authors' ICDE'09 follow-up develops — a finished binding that passes the
// negatives seen so far is emitted at once and stays vulnerable until the
// safe clock passes its seal; a negative arriving inside one of its gaps
// before then emits a compensating Retract. Inserts minus retracts converge
// to the sealed result (invariant I7). Without negation the two policies
// coincide: every binding seals at construction.
//
// The same safe clock drives state purging: an instance at a non-final
// position is dead once safe − Window passes its timestamp; a final-position
// instance once safe passes it, unless a stack it shares with a non-final
// position (ais.Classes) keeps it until safe − Window; buffered negatives
// once safe − 2·Window passes them (a leading negation's gap reaches one
// window behind a match whose first element can itself be one window
// behind the safe clock).
// A purge pass reaches through an expiry order (ais.Due) the key groups that
// hold something below those horizons and drops the ones that come up empty.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"oostream/internal/adaptive"
	"oostream/internal/ais"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/predicate"
	"oostream/internal/provenance"
	"oostream/internal/queue"
)

// EmitPolicy says when a finished binding is released.
type EmitPolicy int

const (
	// SealThenEmit holds a binding until the safe clock passes its negation
	// gaps: output is final, delayed by up to K (default).
	SealThenEmit EmitPolicy = iota
	// EmitThenRetract releases a binding as soon as it passes the negatives
	// seen so far and compensates with a Retract if a later negative
	// invalidates it before it seals: no sealing delay, revisable output.
	EmitThenRetract
)

// String names the strategy the policy implements.
func (p EmitPolicy) String() string {
	if p == EmitThenRetract {
		return "speculate"
	}
	return "native"
}

// Options configure the engine.
type Options struct {
	// K is the disorder bound (slack) in logical milliseconds. Events
	// delayed more than K against the max seen timestamp are late and are
	// dropped (counted in metrics): the paper's model, in which K is an
	// assumption the source must keep.
	K event.Time
	// Emit selects the emission policy; default SealThenEmit.
	Emit EmitPolicy
	// DisableTriggerOpt turns off the scan optimization and probes for
	// completions on every insertion (ablation; still exact, slower).
	DisableTriggerOpt bool
	// PurgeEvery runs a purge pass every PurgeEvery processed events.
	// 0 selects the default (64); negative disables purging (ablation).
	PurgeEvery int
	// Adaptive, when non-nil, makes K dynamic: the safe clock becomes a
	// monotone frontier over (clock − controller's effective K) instead of
	// clock − K, so the bound can grow immediately and shrink without ever
	// moving the frontier backwards — everything the purge horizons assume
	// about the safe clock keeps holding. The engine that holds the
	// controller feeds it: watermark-lag observations and live-state sizes.
	Adaptive *adaptive.Controller
	// Env carries the engine's instruments (series, trace hook, latency
	// sampler, provenance switch); the zero value means none. Internal: the
	// facade's builder fills it, no user-facing knob maps to it.
	Env engine.Env
}

const defaultPurgeEvery = 64

func (o Options) normalized() (Options, error) {
	if o.K < 0 {
		return o, fmt.Errorf("K must be >= 0, got %d", o.K)
	}
	if o.Emit != SealThenEmit && o.Emit != EmitThenRetract {
		return o, fmt.Errorf("unknown emission policy %d", o.Emit)
	}
	if o.PurgeEvery == 0 {
		o.PurgeEvery = defaultPurgeEvery
	}
	return o, nil
}

// errMissingKey reports an event of a pattern-relevant type whose partition
// key attribute is missing or NaN (plan.KeyOf): for a key-partitioned plan
// it can never satisfy the key-equality predicates, so it is counted and
// dropped.
var errMissingKey = errors.New("event has no partition key: attribute missing or NaN")

// Engine is the out-of-order SSC engine.
type Engine struct {
	plan *plan.Plan
	opts Options

	// Stacks and negative stores, per key group (keyOf). keyAttr is the
	// plan's equivalence attribute, or "" when every event files under the
	// zero Value; with an attribute, its key-equality predicates are excluded
	// from cross (positives) and marked in negSkip (negations; nil without).
	keyAttr string
	kstacks *ais.KeyedStacks
	knegs   []map[event.Value]*ais.Stack
	negSkip [][]bool
	// lead[pos] is the first position of pos's stack class (ais.Classes):
	// positions of one type with no local predicate admit the same events,
	// so one stack holds them and an event is pushed once, at the lead,
	// whose index pushed[lead] the others read. Both nil when no two
	// positions share.
	lead, pushed []int
	// negFree holds the negative stores purges emptied, for insertNeg to
	// take before making one.
	negFree []*ais.Stack
	// negDue[i] is the expiry order over knegs[i]: one entry per buffered
	// negative, {its timestamp, its store}, added by insertNeg and popped by
	// the pass that purges the negative, so the two correspond one to one
	// between passes (CheckDue).
	negDue []ais.Due[*ais.Stack]

	// cross is the construction-time cross-predicate view: the full set
	// minus the key equalities the grouping pre-satisfies.
	cross *plan.CrossView

	// pending holds the bindings whose negation gaps have yet to seal, due at
	// their sealTS; those sealing together leave in completion order.
	pending queue.Queue[pendingMatch]
	// vuln holds the emitted matches that can still be retracted, per key
	// group (the zero Value when unkeyed) in emission order, so a negative
	// probes only its own group and compensations leave in the order their
	// inserts did — output stays a deterministic function of the event
	// sequence, which crash recovery replays against. Entries leave when
	// retracted or, once the safe clock passes their seal, at the next purge.
	vuln     map[event.Value]vulnList
	liveVuln int
	// vulnDue is the expiry order over vuln: {sealTS, key} per released
	// match. A retracted match leaves its entry behind; it pops to no list
	// or to one with nothing due. purgePass numbers the purge passes
	// so a list with many entries due is filtered once per pass, and
	// vulnFilters counts those filters (tests pin it).
	vulnDue     ais.Due[event.Value]
	purgePass   uint64
	vulnFilters int
	// clock is the maximum timestamp seen (not the latest arrival's).
	clock   event.Time
	started bool
	// frontier is the adaptive safe clock: the max over history of
	// (clock − effective K), monotone non-decreasing even when K shrinks.
	// Every admitted event's timestamp is ≥ the frontier at admission
	// ≥ clock − (max K ever published), which is what makes the adaptive
	// run output-equivalent to a static run at K = max K observed. It starts
	// at the bottom of the time range, so the first event's bound holds
	// however low its timestamp; unused when opts.Adaptive is nil.
	frontier event.Time
	// shedded counts events discarded by overload degradation.
	shedded uint64
	arrival uint64
	since   int
	// liveStack and liveNeg count live stack instances and buffered
	// negatives incrementally, making StateSize O(1) instead of a
	// per-event recomputation.
	liveStack int
	liveNeg   int
	// enumerated counts complete bindings found by construction; used to
	// classify probes as empty (pure overhead) or productive.
	enumerated uint64
	// tap reports each lifecycle step into the instruments of opts.Env,
	// fixed at construction, under the series name or the strategy's; its
	// sampler stamps the construction stage boundary (admission to the end
	// of processOne) on sampled spans.
	tap engine.Tap

	// prov enables lineage-record construction on emitted matches. Every
	// site checks the flag first, so the disabled hot path pays one
	// predictable branch and builds nothing. restored marks
	// an engine rebuilt from a checkpoint: lineage is not checkpointed, so
	// matches sealed from restored pending state carry truncated records.
	// lineageLive/lineageBytes track records currently retained by pending
	// matches, feeding the lineage gauges.
	prov         bool
	restored     bool
	lineageLive  int
	lineageBytes int

	// Construction scratch, reused across triggers so the hot path does
	// not allocate: binding holds the partial binding (copied only on
	// emit), negScratch the negation-probe binding, localScratch the
	// one-slot local-predicate binding. walk* carry the current trigger's
	// key and position through the recursive enumeration, walkStack[p] and
	// columns[p] are level p's stack and operand columns in the trigger's
	// group, resolved once per construct, and walkTrigSeq is maintained
	// only under prov. visited counts the candidates every walk so far has
	// visited; walkFrom is its value when the current construction started,
	// less the candidates its pre-filter scanned, so visited − walkFrom is
	// the trigger's lineage Traversed.
	binding      []event.Event
	negScratch   []event.Event
	localScratch []event.Event
	walkStack    []*ais.Stack
	columns      [][][]predicate.Side
	walkKey      event.Value
	walkPos      int
	walkTrigTS   event.Time
	walkTrigSeq  event.Seq
	visited      uint64
	walkFrom     uint64
	// walkLevels is cross.Walk(walkPos), what each level evaluates, and
	// walkPairs says one of them has a pair. reach[p] is level p's reach
	// and, at a level with hoisted predicates, pass[p] the indices in it
	// that pass them, ascending; cols[p][i] is the column of the level's
	// i-th check when that is a pair, filled[p] says it is set. bound[p] is
	// the stack index of the instance bound at slot p, the trigger's at
	// walkPos. cur[p] is where the current loop one level nearer the
	// trigger last entered level p, as a position in its candidates, or −1
	// before its first entry. All of them hold for the current construct
	// only (the stacks do not change during a walk).
	walkLevels []plan.Level
	walkPairs  bool
	reach      [][2]int
	pass       [][]int32
	cols       [][]column
	filled     []bool
	bound      []int
	cur        []int

	// res carves what each call returns from append-only blocks: the
	// matches, and the events of a match sealed at emission. It lends them
	// from the same blocks each call when Env.Borrowed says the caller keeps
	// none.
	res plan.Blocks
}

// column is one pair check's candidate sides at a level: its stack's
// column, indexed by stack index, so a pass list's candidates are read
// through the list and not copied. partner is the side of the instance bound at the check's partner
// slot, set when the walk enters the level. bounds[k] folds the sides of the
// candidates a walk entering at column position k (a position in the pass
// list, or in the reach) can visit: those before k going down, from k on
// going up; it is kept for an ordered comparison only.
type column struct {
	sides   []predicate.Side
	bounds  []predicate.Bound
	partner *predicate.Side
}

var _ engine.Engine = (*Engine)(nil)

// New builds an out-of-order engine.
func New(p *plan.Plan, opts Options) (*Engine, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	en := &Engine{
		plan:         p,
		opts:         opts,
		knegs:        make([]map[event.Value]*ais.Stack, len(p.Negatives)),
		negDue:       make([]ais.Due[*ais.Stack], len(p.Negatives)),
		vuln:         make(map[event.Value]vulnList),
		frontier:     math.MinInt64,
		tap:          opts.Env.Publish(opts.Emit.String()),
		prov:         opts.Env.Provenance,
		res:          plan.Blocks{Reuse: opts.Env.Borrowed},
		binding:      make([]event.Event, p.Len()),
		negScratch:   make([]event.Event, p.Len()+1),
		localScratch: make([]event.Event, 1),
		walkStack:    make([]*ais.Stack, p.Len()),
		columns:      make([][][]predicate.Side, p.Len()),
		reach:        make([][2]int, p.Len()),
		pass:         make([][]int32, p.Len()),
		cols:         make([][]column, p.Len()),
		filled:       make([]bool, p.Len()),
		bound:        make([]int, p.Len()),
		cur:          make([]int, p.Len()),
	}
	for i := range en.knegs {
		en.knegs[i] = make(map[event.Value]*ais.Stack)
	}
	skip := make(map[int]bool)
	if attr := p.PartitionKey; attr != "" {
		en.keyAttr = attr
		for _, l := range p.EqLinks {
			if l.Attr == attr {
				skip[l.CrossIdx] = true
			}
		}
		en.negSkip = make([][]bool, len(p.Negatives))
		for i := range en.negSkip {
			en.negSkip[i] = make([]bool, len(p.Negatives[i].Cross))
		}
		for _, l := range p.NegEqLinks {
			if l.Attr == attr {
				en.negSkip[l.NegIdx][l.CrossIdx] = true
			}
		}
	}
	en.cross = p.CrossView(func(i int) bool { return skip[i] })
	class := ais.Classes(p.Len(), func(a, b int) bool {
		pa, pb := &p.Positives[a], &p.Positives[b]
		return pa.Type == pb.Type && len(pa.Local) == 0 && len(pb.Local) == 0
	})
	en.kstacks = ais.NewKeyedClasses(class, en.cross.Operands())
	if class != nil {
		en.lead, en.pushed = make([]int, p.Len()), make([]int, p.Len())
		for pos, c := range class {
			en.lead[pos] = slices.Index(class, c)
		}
	}
	for t := range p.Positives {
		for lvl, lv := range en.cross.Walk(t) {
			if len(lv.Checks) > len(en.cols[lvl]) {
				en.cols[lvl] = make([]column, len(lv.Checks))
			}
		}
	}
	return en, nil
}

// MustNew is New for known-good options (used in tests and examples).
func MustNew(p *plan.Plan, opts Options) *Engine {
	en, err := New(p, opts)
	if err != nil {
		panic(err)
	}
	return en
}

// Name implements engine.Engine: the strategy the emission policy implements.
func (en *Engine) Name() string { return en.opts.Emit.String() }

// Metrics implements engine.Engine.
func (en *Engine) Metrics() obsv.Snapshot { return en.tap.Snapshot() }

// Keyed reports whether the engine groups its state by a key attribute.
// Only reports read it: state handling goes through keyOf.
func (en *Engine) Keyed() bool { return en.keyAttr != "" }

// keyOf returns the key group an event files under: its canonical value of
// the key attribute (ok false when it has none, plan.KeyOf), or the zero
// Value for every event of an engine without one.
func (en *Engine) keyOf(e event.Event) (key event.Value, ok bool) {
	if en.keyAttr == "" {
		return event.Value{}, true
	}
	return plan.KeyOf(e, en.keyAttr)
}

// KeyGroups returns the number of live stack key groups (0 when unkeyed:
// the one group of the zero key is not a partition).
func (en *Engine) KeyGroups() int {
	if !en.Keyed() {
		return 0
	}
	return en.kstacks.Groups()
}

// StateSize implements engine.Engine in O(1): the counts are maintained
// incrementally on insertion and purging (recomputeStateSize cross-checks
// them in tests).
func (en *Engine) StateSize() int {
	return en.liveStack + en.liveNeg + en.pending.Len() + en.liveVuln
}

// recomputeStateSize walks the actual structures; tests assert it equals
// the incrementally maintained StateSize after every event.
func (en *Engine) recomputeStateSize() int {
	total := en.pending.Len()
	for _, l := range en.vuln {
		total += len(l.items)
	}
	en.kstacks.Range(func(_ event.Value, st *ais.Stacks) {
		total += st.Size()
	})
	for _, m := range en.knegs {
		for _, ns := range m {
			total += ns.Len()
		}
	}
	return total
}

// negKey returns the key group of a non-empty negative store: the key every
// negative in it carries. A store reached through the expiry order
// leaves the map under it when a purge empties it.
func (en *Engine) negKey(ns *ais.Stack) event.Value {
	key, _ := en.keyOf(*ns.At(0))
	return key
}

// CheckDue verifies the engine's expiry orders against the state they
// index: the stacks' (ais.KeyedStacks.CheckDue); per negation, sorted entries
// that name stores in the map and are exactly each store's buffered
// timestamps; and for the vulnerable matches, sorted entries among which
// every live match finds one under its sealTS and key — entries left by
// retracted matches are allowed, a missing one is not. It holds between
// purge passes; used by tests and the differential harness, not called on
// hot paths.
func (en *Engine) CheckDue() error {
	if err := en.kstacks.CheckDue(); err != nil {
		return err
	}
	for negIdx, m := range en.knegs {
		filed, err := en.negDue[negIdx].Filed()
		if err != nil {
			return fmt.Errorf("negation %d: %w", negIdx, err)
		}
		for ns, tss := range filed {
			if ns.Len() == 0 || m[en.negKey(ns)] != ns {
				return fmt.Errorf("negation %d: %d due entries name a store that left the map", negIdx, len(tss))
			}
		}
		for key, ns := range m {
			want := filed[ns]
			if ns.Len() != len(want) {
				return fmt.Errorf("negation %d key %s: %d buffered negatives, %d due entries", negIdx, key, ns.Len(), len(want))
			}
			for i := range want {
				if ts := ns.At(i).TS; ts != want[i] {
					return fmt.Errorf("negation %d key %s: negative %d has ts=%d, its due entry ts=%d", negIdx, key, i, ts, want[i])
				}
			}
		}
	}
	filed, err := en.vulnDue.Filed()
	if err != nil {
		return fmt.Errorf("vulnerable: %w", err)
	}
	for key, l := range en.vuln {
		have := make(map[event.Time]int)
		for _, ts := range filed[key] {
			have[ts]++
		}
		for _, pm := range l.items {
			if have[pm.sealTS]--; have[pm.sealTS] < 0 {
				return fmt.Errorf("vulnerable key %s: match sealing at %d has no due entry", key, pm.sealTS)
			}
		}
	}
	return nil
}

// safe returns the safe clock: every event with a timestamp below it has
// arrived (under the disorder bound). maxTS − K for static K, saturated at
// the bottom of the time range; the monotone frontier when K is adaptive.
func (en *Engine) safe() event.Time {
	if !en.started {
		return minTime
	}
	if en.opts.Adaptive != nil {
		return en.frontier
	}
	return event.SubSat(en.clock, en.opts.K)
}

// advanceFrontier folds the controller's current effective K into the
// monotone frontier. Cheap (one atomic load); called around every clock
// move so a growing bound takes effect immediately and a shrinking one
// only lets future clock advances move the frontier faster.
func (en *Engine) advanceFrontier() {
	if en.opts.Adaptive == nil || !en.started {
		return
	}
	if cand := event.SubSat(en.clock, en.opts.Adaptive.EffectiveK()); cand > en.frontier {
		en.frontier = cand
	}
}

const minTime = event.Time(-1 << 62)

// Process implements engine.Engine.
func (en *Engine) Process(e event.Event) []plan.Match {
	out := en.processOne(e, en.res.Open())
	en.tap.Spans.StageEnd(e.Seq, obsv.StageConstruct)
	en.maybePurge()
	en.publishGauges()
	return en.res.Close(out)
}

// ProcessBatch implements engine.Engine: the per-event admission,
// insertion, and pending-drain pipeline runs unchanged for every event,
// but the purge pass and gauge publication are deferred to the batch
// boundary. That deferral is output-invisible: late events are dropped, and
// purging only removes instances the window bound already excludes from
// every future enumeration (construct's walks break on the window before
// touching them), so matches, retractions, lineage, and non-purge trace
// operations are identical to the per-event path.
func (en *Engine) ProcessBatch(batch []event.Event) []plan.Match {
	out := en.res.Open()
	for i := range batch {
		out = en.processOne(batch[i], out)
		en.tap.Spans.StageEnd(batch[i].Seq, obsv.StageConstruct)
	}
	en.maybePurge()
	en.publishGauges()
	return en.res.Close(out)
}

// processOne is the per-event pipeline shared by Process and ProcessBatch:
// admission (metrics, trace, late check, clock), AIS insertion with
// trigger-based construction, and the pending drain. Purging and gauge
// publication are the caller's responsibility.
func (en *Engine) processOne(e event.Event, out []plan.Match) []plan.Match {
	en.arrival++
	steps := en.plan.Steps(e.Type)
	if steps == nil {
		en.tap.Irrelevant.Inc()
		return out
	}
	isOOO := en.started && e.TS < en.clock
	var lag event.Time
	if isOOO {
		lag = event.Lag(en.clock, e.TS)
	}
	en.tap.Admit(e, isOOO, lag)
	if en.opts.Adaptive != nil {
		// Same observation point as Series.WatermarkLag — bound violators
		// included, so a late storm is evidence to grow K, not invisible.
		en.opts.Adaptive.ObserveLag(lag)
	}
	// Sample the frontier before the late check: every event admitted below
	// is then provably within the current effective K of the clock.
	en.advanceFrontier()
	if en.started && e.TS < en.safe() {
		if ad := en.opts.Adaptive; ad != nil && ad.Degraded() && e.TS >= event.SubSat(en.clock, ad.NominalK()) {
			// The event violates only the degradation-clamped bound, not the
			// nominal one: it was deliberately shed, not late.
			en.shedded++
			en.tap.Reject(e, true)
			return out
		}
		en.tap.Reject(e, false)
		return out
	}
	if e.TS > en.clock || !en.started {
		en.clock = e.TS
		en.started = true
		en.advanceFrontier()
	}
	if !en.plan.ConstFalse {
		out = en.insert(e, steps, isOOO, out)
	}
	if en.pending.Len() > 0 {
		out = en.drainPending(en.safe(), en.finalize, out)
	}
	en.since++
	if en.opts.Adaptive != nil {
		en.opts.Adaptive.NoteState(en.StateSize())
	}
	return out
}

// publishGauges refreshes the state gauges: once per Process call, once
// per batch on the ProcessBatch path. A carried series carries no gauge.
func (en *Engine) publishGauges() {
	if en.tap.Inner() {
		return
	}
	en.tap.LiveState.Set(int64(en.StateSize()))
	if en.Keyed() {
		en.tap.KeyGroups.Set(int64(en.kstacks.Groups()))
	}
	if en.prov {
		en.tap.SetLineage(en.lineageLive, en.lineageBytes)
	}
	if ad := en.opts.Adaptive; ad != nil {
		en.tap.SetBound(ad.EffectiveK(), ad.Degraded())
	}
}

// insert routes the event to its key group: buffered as a negative, pushed
// on the group's stacks, and — when it can be the last-arriving member of a
// match — the trigger of a construction over that group. Events lacking the
// key cannot satisfy the key-equality predicates and are counted and dropped,
// as the predicate error they would raise ungrouped.
func (en *Engine) insert(e event.Event, steps *plan.TypeSteps, isOOO bool, out []plan.Match) []plan.Match {
	key, ok := en.keyOf(e)
	if !ok {
		en.tap.IncPredError(errMissingKey)
		return out
	}
	for _, negIdx := range steps.Negatives {
		if plan.EvalLocalScratch(en.plan.Negatives[negIdx].Local, e, en.localScratch, en.tap.IncPredError) {
			en.insertNeg(negIdx, key, e)
			out = en.retract(negIdx, key, e, out)
		}
	}
	last := en.plan.Len() - 1
	var st *ais.Stacks
	for _, pos := range steps.Positions {
		if !plan.EvalLocalScratch(en.plan.Positives[pos].Local, e, en.localScratch, en.tap.IncPredError) {
			continue
		}
		// The repair is the next-stack run whose RIP the insertion became.
		var idx, fixups int
		if en.lead == nil || en.lead[pos] == pos {
			idx, st = en.kstacks.Insert(key, pos, e)
			en.liveStack++
			fixups = st.LastFixups()
			if en.pushed != nil {
				en.pushed[pos] = idx
			}
		} else {
			// The lead, an earlier position of the event's type, pushed it.
			idx = en.pushed[en.lead[pos]]
			fixups = st.Fixups(pos, idx)
		}
		en.tap.Push(e, pos, fixups)
		if pos == last || isOOO || en.opts.DisableTriggerOpt {
			en.tap.Trigger(e, pos)
			before := en.enumerated
			out = en.construct(st, key, pos, idx, out)
			if en.enumerated == before && !en.tap.Inner() {
				en.tap.EmptyProbes.Inc()
			}
		}
	}
	return out
}

// insertNeg buffers a negative in its key group's store, taken from the
// free list or made on the group's first negative, and files it in the
// negation's expiry order.
func (en *Engine) insertNeg(negIdx int, key event.Value, e event.Event) {
	m := en.knegs[negIdx]
	ns := m[key]
	if ns == nil {
		if n := len(en.negFree); n > 0 {
			ns, en.negFree = en.negFree[n-1], en.negFree[:n-1]
		} else {
			ns = &ais.Stack{}
		}
		m[key] = ns
	}
	ns.Insert(e)
	en.negDue[negIdx].Insert(e.TS, ns)
	en.liveNeg++
}

// Advance implements engine.Engine: a heartbeat promising that no future
// event carries a timestamp below ts − K. The clock moves forward, pending
// negation output whose gaps the new safe clock seals is emitted, and a
// purge pass runs. Moving the clock backwards is a no-op.
func (en *Engine) Advance(ts event.Time) []plan.Match {
	if !en.started || ts > en.clock {
		en.clock = ts
		en.started = true
	}
	en.advanceFrontier()
	en.tap.Mark(obsv.OpHeartbeat, "", ts, 0)
	out := en.drainPending(en.safe(), en.finalize, en.res.Open())
	en.since = en.opts.PurgeEvery // force the next purge check to run
	en.maybePurge()
	en.publishGauges()
	return en.res.Close(out)
}

// Flush implements engine.Engine: end of stream seals every pending match
// and makes every vulnerable one final.
func (en *Engine) Flush() []plan.Match {
	out := en.drainPending(math.MaxInt64, en.finalize, en.res.Open())
	// Whatever is still vulnerable is final: no negative can follow.
	clear(en.vuln)
	en.vulnDue = ais.Due[event.Value]{}
	en.liveVuln = 0
	en.tap.LiveState.Set(int64(en.StateSize()))
	if en.prov {
		en.tap.SetLineage(en.lineageLive, en.lineageBytes)
	}
	en.tap.Mark(obsv.OpFlush, "", en.clock, 0)
	return en.res.Close(out)
}

// construct enumerates every match that contains the instance at index idx
// of position pos's stack, the one just inserted, using only instances
// already in st, the trigger's key group. Earlier positions are bound walking
// down from pos, then later positions walking up; each level evaluates the
// cross predicates whose last slot it binds (plan.CrossView.Walk), except the
// trigger-pair ones, which prefilter settles once per candidate before the
// walk. A pair is compared on sides the stacks loaded when each instance was
// pushed (ais.Stacks.Columns). The binding buffer is engine scratch, copied
// only when a complete match emits.
func (en *Engine) construct(st *ais.Stacks, key event.Value, pos, idx int, out []plan.Match) []plan.Match {
	for p := range en.walkStack {
		en.walkStack[p] = st.Stack(p)
	}
	trigger := en.walkStack[pos].At(idx)
	en.binding[pos] = *trigger
	en.bound[pos] = idx
	en.walkKey = key
	en.walkPos = pos
	en.walkTrigTS = trigger.TS
	en.walkFrom = en.visited
	if en.prov {
		en.walkTrigSeq = trigger.Seq
	}
	en.walkLevels = en.cross.Walk(pos)
	en.walkPairs = en.cross.HasPairs(pos)
	hoists := en.cross.Hoists(pos)
	if en.walkPairs || hoists {
		for p := range en.columns {
			en.columns[p] = st.Columns(p, en.columns[p][:0])
		}
		// A walk never enters a level past an empty run, so the reach of
		// the levels it enters is set even when Reach stops early.
		reached := st.Reach(pos, trigger.TS, en.plan.Window, en.reach)
		if hoists && (!reached || !en.prefilter()) {
			return out
		}
		clear(en.filled)
	}
	if pos > 0 {
		en.cur[pos-1] = -1
	}
	if pos+1 < len(en.cur) {
		en.cur[pos+1] = -1
	}
	return en.walkDown(pos-1, out)
}

// prefilter evaluates the trigger-pair predicates once per candidate in its
// slot's reach (ais.Stacks.Reach) and lists the passing indices, ascending, in
// pass. It applies a level's predicates one after another, each to the
// candidates the ones before it passed, so a candidate meets the
// evaluations, in the order, that testing it alone would give it. It
// reports false when a pass list is empty: the trigger completes no match.
func (en *Engine) prefilter() bool {
	for p := range en.walkLevels {
		hoisted := en.walkLevels[p].Hoisted
		if len(hoisted) == 0 {
			continue
		}
		r := en.reach[p]
		var list []int32 // nil: the first predicate reads the reach
		pass := en.pass[p][:0]
		for k := range hoisted {
			if c := &hoisted[k]; c.Pair != nil {
				pass = c.Pair.Filter(c.Cand, en.partner(c), en.columns[p][c.CandCol], list, r[0], r[1], pass[:0], en.tap.IncPredError)
			} else {
				pass = en.filterHolds(p, c, list, r[0], r[1], pass[:0])
			}
			if len(pass) == 0 {
				break
			}
			list = pass
		}
		en.pass[p] = pass
		en.walkFrom -= uint64(r[1] - r[0])
		if len(pass) == 0 {
			return false
		}
	}
	return true
}

// filterHolds appends to pass each candidate of level p, the indices in
// list or, when list is nil, lo up to hi, for which c, a predicate with no
// pair form, holds. pass may share list's array.
func (en *Engine) filterHolds(p int, c *plan.Check, list []int32, lo, hi int, pass []int32) []int32 {
	s := en.walkStack[p]
	n := hi - lo
	if list != nil {
		lo, n = 0, len(list)
	}
	for j := range n {
		i := at(list, lo+j)
		en.binding[p] = *s.At(i)
		if c.Holds(en.binding, en.tap.IncPredError) {
			pass = append(pass, int32(i))
		}
	}
	return pass
}

// partner is the side of c's partner slot loaded from the instance bound
// there.
func (en *Engine) partner(c *plan.Check) *predicate.Side {
	return &en.columns[c.Partner][c.PartnerCol][en.bound[c.Partner]]
}

// compare runs a pair check on its candidate's side and its partner's.
func (en *Engine) compare(c *plan.Check, cand, partner *predicate.Side) bool {
	l, r := partner, cand
	if c.Cand == 0 {
		l, r = cand, partner
	}
	ok, err := c.Pair.Compare(l, r)
	if err != nil {
		en.tap.IncPredError(err)
	}
	return ok
}

// candidates returns the pass list level p iterates, nil when it iterates its
// stack, and the number of candidates.
func (en *Engine) candidates(p int) (pass []int32, n int) {
	if len(en.walkLevels[p].Hoisted) == 0 {
		return nil, en.walkStack[p].Len()
	}
	return en.pass[p], len(en.pass[p])
}

// at is the stack index of a level's j-th candidate.
func at(pass []int32, j int) int {
	if pass == nil {
		return j
	}
	return int(pass[j])
}

// search is the position in level p's candidates of stack index i.
func search(pass []int32, i int) int {
	if pass == nil {
		return i
	}
	j, _ := slices.BinarySearch(pass, int32(i))
	return j
}

// origin is the position in level p's candidates that its columns start at:
// 0 in a pass list, the reach's first index in the stack.
func (en *Engine) origin(pass []int32, p int) int {
	if pass != nil {
		return 0
	}
	return en.reach[p][0]
}

// enter points level p's pairs at their partners' sides in a walk that has
// pairs, setting its columns on the first entry of the walk, and reports
// whether to visit the candidates a walk entering at column position k can
// reach. It says no when an ordered pair excludes them all by its bound and
// every check before it is a Quiet pair: then each visit would have been
// false without an error, and the matches and PredErrors are the same.
func (en *Engine) enter(p int, pass []int32, k int) bool {
	if !en.filled[p] {
		en.fill(p, pass)
		en.filled[p] = true
	}
	quiet := true
	for i := range en.walkLevels[p].Checks {
		c := &en.walkLevels[p].Checks[i]
		if c.Pair == nil {
			quiet = false
			continue
		}
		col := &en.cols[p][i]
		col.partner = en.partner(c)
		if !quiet || len(col.bounds) == 0 {
			quiet = false
			continue
		}
		if c.Pair.Excludes(&col.bounds[k], c.Cand, col.partner) {
			return false
		}
		quiet = c.Pair.Quiet(&col.bounds[k], col.partner)
	}
	return true
}

// fill sets level p's columns: each pair check's candidate sides, its
// stack's column; and, for an ordered pair, the bounds of the runs the walk
// can visit, folded over the level's candidates in its reach or pass list.
func (en *Engine) fill(p int, pass []int32) {
	lo, hi := en.reach[p][0], en.reach[p][1]
	n := hi - lo
	if pass != nil {
		n = len(pass)
	}
	for i := range en.walkLevels[p].Checks {
		c := &en.walkLevels[p].Checks[i]
		if c.Pair == nil {
			continue
		}
		col := &en.cols[p][i]
		col.sides = en.columns[p][c.CandCol]
		col.bounds = col.bounds[:0]
		if !c.Pair.Ordered() {
			continue
		}
		col.bounds = slices.Grow(col.bounds, n+1)[:n+1]
		c.Pair.Folds(c.Cand, col.sides, pass, lo, hi, p > en.walkPos, col.bounds)
	}
}

// admit evaluates level p's checks, in order, on its candidate cand at
// stack index i, and binds cand when all hold. A candidate that fails a
// pair is not copied into the binding.
func (en *Engine) admit(p, i int, cand *event.Event) bool {
	checks := en.walkLevels[p].Checks
	bound := false
	for k := range checks {
		c := &checks[k]
		if c.Pair != nil {
			col := &en.cols[p][k]
			if !en.compare(c, &col.sides[i], col.partner) {
				return false
			}
			continue
		}
		if !bound {
			en.binding[p] = *cand
			bound = true
		}
		if !c.Holds(en.binding, en.tap.IncPredError) {
			return false
		}
	}
	if !bound {
		en.binding[p] = *cand
	}
	return true
}

// walkDown binds positions pos-1 .. 0 with instances earlier than the
// already-bound successor, then hands over to walkUp. The first candidate is
// the successor's RIP, the one before the first at or after it: found by
// search on a loop's first entry into the level, and by moving the cursor
// down from the previous entry after that, the successors coming in
// descending order. A level with a Floor stops at the next level's earliest
// passing candidate.
func (en *Engine) walkDown(p int, out []plan.Match) []plan.Match {
	if p < 0 {
		return en.walkUp(en.walkPos+1, out)
	}
	s := en.walkStack[p]
	pass, _ := en.candidates(p)
	succ := en.binding[p+1].TS
	j := en.cur[p]
	if j < 0 {
		j = search(pass, s.FirstAtOrAfter(succ))
	} else {
		for j > 0 && s.At(at(pass, j-1)).TS >= succ {
			j--
		}
	}
	en.cur[p] = j
	origin := en.origin(pass, p)
	if en.walkPairs && !en.enter(p, pass, j-origin) {
		return out
	}
	lowTS := event.SubSat(en.walkTrigTS, en.plan.Window)
	if p > 0 {
		if en.walkLevels[p].Floor {
			first := en.walkStack[p-1].At(int(en.pass[p-1][0])).TS
			lowTS = max(lowTS, event.AddSat(first, 1))
		}
		en.cur[p-1] = -1
	}
	for j--; j >= 0; j-- {
		i := at(pass, j)
		cand := s.At(i)
		if cand.TS < lowTS {
			break
		}
		en.visited++
		if en.admit(p, i, cand) {
			en.bound[p] = i
			out = en.walkDown(p-1, out)
		}
	}
	return out
}

// walkUp binds positions walkPos+1 .. n-1 with instances later than the
// already-bound predecessor, emitting when the binding completes. Its cursor
// moves up from the loop's previous entry, and a level with a Floor stops at
// the next level's latest passing candidate.
func (en *Engine) walkUp(p int, out []plan.Match) []plan.Match {
	if p >= en.plan.Len() {
		return en.emit(en.binding, out)
	}
	s := en.walkStack[p]
	pass, n := en.candidates(p)
	pred := en.binding[p-1].TS
	j := en.cur[p]
	if j < 0 {
		j = search(pass, s.FirstAfter(pred))
	} else {
		for j < n && s.At(at(pass, j)).TS <= pred {
			j++
		}
	}
	en.cur[p] = j
	origin := en.origin(pass, p)
	if en.walkPairs && !en.enter(p, pass, j-origin) {
		return out
	}
	highTS := event.AddSat(en.binding[0].TS, en.plan.Window)
	if p+1 < en.plan.Len() {
		if en.walkLevels[p].Floor {
			next := en.pass[p+1]
			last := en.walkStack[p+1].At(int(next[len(next)-1])).TS
			highTS = min(highTS, event.SubSat(last, 1))
		}
		en.cur[p+1] = -1
	}
	for ; j < n; j++ {
		i := at(pass, j)
		cand := s.At(i)
		if cand.TS > highTS {
			break
		}
		en.visited++
		if en.admit(p, i, cand) {
			en.bound[p] = i
			out = en.walkUp(p+1, out)
		}
	}
	return out
}

// emit routes a complete positive binding: sealed immediately when the safe
// clock already passed every negation gap; otherwise released as vulnerable
// (EmitThenRetract) or parked in the pending queue until it does. The
// scratch binding is copied here. A match sealed at emission lives only in
// what the call returns, so once no negative invalidates it its copy is
// carved from the event block and costs no allocation of its own; a pending
// or vulnerable binding outlives the call and gets its own slice, so no
// block stays alive for it.
func (en *Engine) emit(binding []event.Event, out []plan.Match) []plan.Match {
	en.enumerated++
	sealTS := minTime
	for negIdx := range en.plan.Negatives {
		_, hi := en.plan.GapBounds(negIdx, binding)
		if hi > sealTS {
			sealTS = hi
		}
	}
	// Without negation the binding is sealed whatever the clock: minTime is
	// only its label, and a safe clock near the bottom of the range is below it.
	sealed := len(en.plan.Negatives) == 0 || sealTS <= en.safe()
	pm := pendingMatch{events: binding, key: en.walkKey, sealTS: sealTS, madeSeq: en.arrival}
	if en.prov {
		pm.prov = en.lineageFor(pm)
		pm.prov.TriggerSeq = en.walkTrigSeq
		pm.prov.TriggerTS = en.walkTrigTS
		pm.prov.TriggerPos = en.walkPos
		pm.prov.Traversed = int(en.visited - en.walkFrom)
		en.tap.LineageRecords.Inc()
	}
	if sealed {
		if en.invalidated(pm) {
			return out
		}
		pm.events = en.res.Events(binding)
		return en.output(pm, out)
	}
	pm.events = make([]event.Event, len(binding))
	copy(pm.events, binding)
	if en.opts.Emit == EmitThenRetract {
		return en.release(pm, out)
	}
	if pm.prov != nil {
		en.lineageLive++
		en.lineageBytes += pm.prov.SizeBytes()
	}
	en.pending.Insert(pm.sealTS, pm)
	return out
}

// release emits a binding ahead of its seal: finalize checks it against the
// negatives seen so far, and a match that goes out joins its key group's
// vulnerable list, where later negatives find it.
func (en *Engine) release(pm pendingMatch, out []plan.Match) []plan.Match {
	n := len(out)
	out = en.finalize(pm, out)
	if len(out) > n {
		pm.prov = nil // the record left with the match
		en.fileVulnerable(pm)
	}
	return out
}

// fileVulnerable appends an emitted match to its key group's vulnerable list
// and enters it in the expiry order.
func (en *Engine) fileVulnerable(pm pendingMatch) {
	l := en.vuln[pm.key]
	l.items = append(l.items, pm)
	en.vuln[pm.key] = l
	en.liveVuln++
	en.vulnDue.Insert(pm.sealTS, pm.key)
}

// retract compensates the vulnerable matches of the negative's key group
// whose gap it falls into, in emission order.
func (en *Engine) retract(negIdx int, key event.Value, neg event.Event, out []plan.Match) []plan.Match {
	if en.liveVuln == 0 {
		return out
	}
	l := en.vuln[key]
	kept := l.items[:0]
	for _, pm := range l.items {
		lo, hi := en.plan.GapBounds(negIdx, pm.events)
		if neg.TS <= lo || neg.TS >= hi ||
			!en.plan.NegMatchesScratch(negIdx, neg, pm.events, en.negSkipFor(negIdx), en.negScratch, en.tap.IncPredError) {
			kept = append(kept, pm)
			continue
		}
		m := plan.Match{
			Kind:      plan.Retract,
			Events:    pm.events,
			EmitSeq:   event.Seq(en.arrival),
			EmitClock: en.clock,
		}
		if en.prov {
			m.Prov = en.lineageFor(pm)
			m.Prov.Kind = provenance.KindRetract
			m.Prov.EmitClock = en.clock
			inv := provenance.Ref(neg, -1)
			m.Prov.InvalidatedBy = &inv
			en.tap.LineageRecords.Inc()
		}
		en.tap.Emit(&m, 0, 0)
		out = en.res.Append(out, m)
	}
	if len(kept) < len(l.items) {
		en.setVulnerable(key, l, kept)
	}
	return out
}

// setVulnerable stores a key group's filtered vulnerable list (kept is a
// prefix-compaction of l.items) and settles the accounting. An emptied list
// leaves the map.
func (en *Engine) setVulnerable(key event.Value, l vulnList, kept []pendingMatch) {
	en.liveVuln -= len(l.items) - len(kept)
	clear(l.items[len(kept):])
	if len(kept) == 0 {
		delete(en.vuln, key)
		return
	}
	l.items = kept
	en.vuln[key] = l
}

// sealVulnerable drops the matches of one list that the safe clock sealed
// (they are final) and marks the list as filtered by the current purge pass.
func (en *Engine) sealVulnerable(key event.Value, l vulnList, safe event.Time) {
	en.vulnFilters++
	l.pass = en.purgePass
	kept := l.items[:0]
	for _, pm := range l.items {
		if pm.sealTS > safe {
			kept = append(kept, pm)
		}
	}
	en.setVulnerable(key, l, kept)
}

// SetEmitPolicy switches the emission policy mid-stream and returns the
// output the switch releases (the hybrid meta-engine's lever). Every
// binding is pending (held back, checked against all its negatives at
// seal), vulnerable (out, probed by every negative admitted since), or
// final, so inserts minus retracts stay the sealed result whichever way
// the policy moves: to EmitThenRetract, each pending binding that passes
// the negatives seen so far goes out and becomes vulnerable; to
// SealThenEmit, new bindings wait in pending while the vulnerable ones
// stay retractable until they seal.
func (en *Engine) SetEmitPolicy(p EmitPolicy) []plan.Match {
	en.opts.Emit = p
	out := en.res.Open()
	if p == EmitThenRetract {
		out = en.drainPending(math.MaxInt64, en.release, out)
	}
	en.tap.Mark(obsv.OpSwitch, p.String(), en.safe(), len(out))
	en.publishGauges()
	return en.res.Close(out)
}

// EmitPolicy returns the emission policy in force.
func (en *Engine) EmitPolicy() EmitPolicy { return en.opts.Emit }

// Controller returns the adaptive controller the kernel feeds (restored with
// it from a checkpoint), nil under a static K.
func (en *Engine) Controller() *adaptive.Controller { return en.opts.Adaptive }

// lineageFor builds the binding-derivable part of a pending match's lineage
// record (events, key, window, seal). Trigger details are added by emit;
// checkpoint-restored pendings get only this part, marked Truncated.
func (en *Engine) lineageFor(pm pendingMatch) *provenance.Record {
	rec := &provenance.Record{
		Kind:     provenance.KindInsert,
		Events:   provenance.Refs(pm.events),
		WindowLo: pm.events[0].TS,
		WindowHi: event.AddSat(pm.events[0].TS, en.plan.Window),
		SealTS:   pm.sealTS,
	}
	if en.Keyed() {
		rec.Key = pm.key.String()
		rec.KeyAttr = en.keyAttr
	}
	return rec
}

// drainPending takes out of pending, in seal order, the matches whose gaps
// close at or before through (the safe clock; the end of time at end of stream
// or a policy flip), settles their lineage accounting and hands each to emit.
func (en *Engine) drainPending(through event.Time, emit func(pendingMatch, []plan.Match) []plan.Match, out []plan.Match) []plan.Match {
	en.pending.PopThrough(through, func(pm pendingMatch) {
		if pm.prov != nil {
			en.lineageLive--
			en.lineageBytes -= pm.prov.SizeBytes()
		}
		out = emit(pm, out)
	})
	return out
}

// finalize checks the (now sealed) negation gaps and emits the match.
func (en *Engine) finalize(pm pendingMatch, out []plan.Match) []plan.Match {
	if en.invalidated(pm) {
		return out
	}
	return en.output(pm, out)
}

// invalidated reports whether a buffered negative of pm's key group falls
// into one of its negation gaps and matches it.
func (en *Engine) invalidated(pm pendingMatch) bool {
	for negIdx := range en.plan.Negatives {
		// The store of the match's key group; nil when the group has no
		// buffered negatives — common, and trivially no invalidator.
		ns := en.knegs[negIdx][pm.key]
		if ns == nil {
			continue
		}
		lo, hi := en.plan.GapBounds(negIdx, pm.events)
		for i := ns.FirstAfter(lo); i < ns.Len() && ns.At(i).TS < hi; i++ {
			if en.plan.NegMatchesScratch(negIdx, *ns.At(i), pm.events, en.negSkipFor(negIdx), en.negScratch, en.tap.IncPredError) {
				return true
			}
		}
	}
	return false
}

// output projects pm's RETURN values and emits it as an insert.
func (en *Engine) output(pm pendingMatch, out []plan.Match) []plan.Match {
	fields, err := en.plan.Project(pm.events)
	if err != nil {
		en.tap.IncPredError(err)
		return out
	}
	m := plan.Match{
		Kind:      plan.Insert,
		Events:    pm.events,
		Fields:    fields,
		EmitSeq:   event.Seq(en.arrival),
		EmitClock: en.clock,
	}
	if en.prov {
		rec := pm.prov
		if rec == nil {
			// Pending state restored from a checkpoint carries no lineage
			// (it is not checkpointed): rebuild what the binding proves and
			// mark the record truncated.
			rec = en.lineageFor(pm)
			rec.Truncated = true
			en.tap.LineageRecords.Inc()
		}
		rec.EmitClock = en.clock
		m.Prov = rec
	}
	en.tap.Emit(&m, en.clock-m.Last().TS, en.arrival-pm.madeSeq)
	return en.res.Append(out, m)
}

// negSkipFor returns the pre-satisfied cross-predicate mask for a negation
// (nil without a key attribute: everything evaluates).
func (en *Engine) negSkipFor(negIdx int) []bool {
	if en.negSkip == nil {
		return nil
	}
	return en.negSkip[negIdx]
}

// maybePurge runs the paper's purge rules once the processed-event counter
// (advanced by processOne) reaches opts.PurgeEvery. Process checks after
// every event; ProcessBatch defers the check to the batch boundary (at
// most one pass per batch — a longer effective cadence, equally correct
// since purging is output-invisible).
func (en *Engine) maybePurge() {
	if en.opts.PurgeEvery < 0 {
		return
	}
	if en.since < en.opts.PurgeEvery {
		return
	}
	en.since = 0
	safe := en.safe()
	last := en.plan.Len() - 1
	horizon := func(pos int) event.Time {
		if pos == last {
			return safe
		}
		return event.SubSat(safe, en.plan.Window)
	}
	purged := en.kstacks.PurgeBefore(horizon)
	en.liveStack -= purged
	// 2·Window cannot overflow: the query analysis caps Window at 1<<60.
	negHorizon := event.SubSat(safe, 2*en.plan.Window)
	negPurged := 0
	for i := range en.negDue {
		m := en.knegs[i]
		en.negDue[i].PopBefore(negHorizon, func(ns *ais.Stack) {
			if ns.Len() == 0 || ns.At(0).TS >= negHorizon {
				// An earlier entry of this pass purged the store already.
				return
			}
			key := en.negKey(ns)
			negPurged += ns.PurgeBefore(negHorizon)
			if ns.Len() == 0 {
				// No entry names it now: this pass popped every one.
				delete(m, key)
				en.negFree = append(en.negFree, ns)
			}
		})
	}
	en.liveNeg -= negPurged
	// Vulnerable matches the safe clock sealed (sealTS <= safe) are final.
	en.purgePass++
	en.vulnDue.PopThrough(safe, func(key event.Value) {
		if l, ok := en.vuln[key]; ok && l.pass != en.purgePass {
			en.sealVulnerable(key, l, safe)
		}
	})
	if purged+negPurged > 0 {
		en.tap.Purge(safe, purged+negPurged)
	}
}

// StateSnapshot implements engine.Engine: a read-only view of the engine's
// live state. Not safe concurrently with Process.
func (en *Engine) StateSnapshot() *provenance.StateSnapshot {
	s := &provenance.StateSnapshot{
		Engine:        en.tap.Name(),
		Started:       en.started,
		Clock:         en.clock,
		Safe:          en.safe(),
		StackDepths:   make([]int, en.plan.Len()),
		NegStoreSizes: make([]int, len(en.plan.Negatives)),
		Pending:       en.pending.Len(),
		Vulnerable:    en.liveVuln,
		Lineage: provenance.LineageStats{
			Enabled:   en.prov,
			Live:      en.lineageLive,
			Bytes:     en.lineageBytes,
			Truncated: en.restored,
		},
	}
	s.PurgeFrontier = event.SubSat(s.Safe, en.plan.Window)
	if en.lead != nil {
		s.StackShared = slices.Clone(en.lead)
	}
	if ad := en.opts.Adaptive; ad != nil {
		cs := ad.Snapshot()
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
	groups := make([]provenance.KeyGroupStat, 0, en.kstacks.Groups())
	en.kstacks.Range(func(key event.Value, st *ais.Stacks) {
		for pos := 0; pos < en.plan.Len(); pos++ {
			if en.lead == nil || en.lead[pos] == pos {
				s.StackDepths[pos] += st.Stack(pos).Len()
			}
		}
		groups = append(groups, provenance.KeyGroupStat{Key: key.String(), Size: st.Size()})
	})
	for negIdx, m := range en.knegs {
		for _, ns := range m {
			s.NegStoreSizes[negIdx] += ns.Len()
		}
	}
	if en.Keyed() {
		// The zero key's one group is not a partition: an engine without a
		// key attribute reports none.
		s.KeyAttr = en.keyAttr
		s.KeyGroups = len(groups)
		s.TopKeyGroups = provenance.TopK(groups, 8)
	}
	return s
}

// pendingMatch is a binding awaiting negation sealing at sealTS. key is the
// partition key of its events (zero Value when the engine is unkeyed).
// prov is the match's lineage record, nil unless provenance is enabled
// (and nil for pendings rebuilt from a checkpoint — lineage is not
// checkpointed; finalize then emits a truncated record).
type pendingMatch struct {
	events  []event.Event
	key     event.Value
	sealTS  event.Time
	madeSeq uint64
	prov    *provenance.Record
}

// vulnList is one key group's vulnerable matches in emission order (never
// empty while in the map). pass is the last purge pass that filtered it.
type vulnList struct {
	items []pendingMatch
	pass  uint64
}
