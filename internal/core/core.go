// Package core implements the paper's contribution: a sequence scan and
// construction (SSC) operator that handles out-of-order data arrival
// natively, instead of reordering the stream in front of an order-assuming
// engine.
//
// The engine keeps the Active Instance Stacks sorted by timestamp
// (internal/ais): an out-of-order event is inserted at its timestamp-correct
// position and the predecessor pointers of affected successors are repaired.
// Construction is *trigger-based*: every match is enumerated exactly once,
// when its last-ARRIVING member is inserted. Three trigger rules make that
// exact:
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
// All state lives in key groups (ais.KeyedStacks, one negative store per
// negation and group): insertion, RIP fix-up, construction, and negation
// probes touch only the trigger's group. When the plan proves the query
// partitionable by an equivalence attribute (plan.PartitionKey, e.g. the
// item id of the RFID query's `s.id = e.id AND s.id = c.id` chain), an
// event's group is its value of that attribute, and the key-equality cross
// predicates are skipped as structurally pre-satisfied: every match binds
// events of one key, so the groups enumerate exactly the ungrouped result
// set while probing a fraction of the state. Without such an attribute — or
// with Options.DisableKeying (ablation) — every event files under the zero
// Value: one group, every predicate evaluated.
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
// instance once safe passes it; buffered negatives once safe − 2·Window
// passes them (a leading negation's gap reaches one window behind a match
// whose first element can itself be one window behind the safe clock).
// A purge pass reaches through an expiry order (ais.Due) the key groups that
// hold something below those horizons and drops the ones that come up empty.
package core

import (
	"errors"
	"fmt"
	"math"

	"oostream/internal/adaptive"
	"oostream/internal/ais"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
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
	// DisableKeying files every event under the zero key even when the plan
	// proves the query partitionable (ablation; still exact, construction
	// then scans every instance in the window).
	DisableKeying bool
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
	knegs   []map[event.Value]*negStore
	negSkip [][]bool
	// negDue[i] is the expiry order over knegs[i]: one entry per buffered
	// negative, {its timestamp, its store}, added by insertNeg and popped by
	// the pass that purges the negative, so the two correspond one to one
	// between passes (CheckDue).
	negDue []ais.Due[*negStore]

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
	// run output-equivalent to a static run at K = max K observed. Unused
	// (minTime) when opts.Adaptive is nil.
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
	met        *obsv.Series
	// The instruments of opts.Env, fixed at construction. trace, when
	// non-nil, observes match-lifecycle steps: every call site nil-checks
	// first so the unhooked hot path pays one predictable branch and
	// constructs no TraceEvent. traceName labels emitted trace events and
	// state snapshots (the series name, or the strategy name at
	// construction).
	trace     obsv.TraceHook
	traceName string

	// lat, when non-nil, stamps the construction stage boundary on sampled
	// event spans (admission to the end of processOne); nil costs one
	// predictable branch per event.
	lat *obsv.LatencySampler

	// prov enables lineage-record construction on emitted matches. Like the
	// trace hook, every site checks the flag first, so the disabled hot
	// path pays one predictable branch and builds nothing. restored marks
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
	// group/key/position through the recursive enumeration; walkTrigSeq
	// and walkVisited are maintained only under prov.
	binding      []event.Event
	negScratch   []event.Event
	localScratch []event.Event
	walkStacks   *ais.Stacks
	walkKey      event.Value
	walkPos      int
	walkTrigTS   event.Time
	walkTrigSeq  event.Seq
	walkVisited  int
	// walkHoist is cross.Hoisted(walkPos): per slot, the predicates over
	// exactly {trigger, slot} at the levels the walk revisits; nil when the
	// trigger position has none. verdict[p][i] remembers their outcome for
	// the candidate at index i of stack p, for the current construct only
	// (the stacks do not change during a walk).
	walkHoist [][]int
	verdict   [][]byte
}

// Verdicts of a candidate's trigger-pair predicates; the zero value is
// "not evaluated for this trigger yet".
const (
	verdictHolds byte = iota + 1
	verdictFails
)

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
		kstacks:      ais.NewKeyed(p.Len()),
		knegs:        make([]map[event.Value]*negStore, len(p.Negatives)),
		negDue:       make([]ais.Due[*negStore], len(p.Negatives)),
		vuln:         make(map[event.Value]vulnList),
		frontier:     minTime,
		trace:        opts.Env.Trace,
		lat:          opts.Env.Latency,
		prov:         opts.Env.Provenance,
		binding:      make([]event.Event, p.Len()),
		negScratch:   make([]event.Event, p.Len()+1),
		localScratch: make([]event.Event, 1),
		verdict:      make([][]byte, p.Len()),
	}
	en.met, en.traceName = opts.Env.Publish(opts.Emit.String())
	for i := range en.knegs {
		en.knegs[i] = make(map[event.Value]*negStore)
	}
	skip := make(map[int]bool)
	if attr := p.PartitionKey; attr != "" && !opts.DisableKeying {
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
func (en *Engine) Metrics() obsv.Snapshot { return en.met.Snapshot() }

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
			total += ns.len()
		}
	}
	return total
}

// negKey returns the key group of a non-empty negative store: the key every
// negative in it carries. A store reached through the expiry order
// leaves the map under it when a purge empties it.
func (en *Engine) negKey(ns *negStore) event.Value {
	key, _ := en.keyOf(ns.items[0])
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
			if ns.len() == 0 || m[en.negKey(ns)] != ns {
				return fmt.Errorf("negation %d: %d due entries name a store that left the map", negIdx, len(tss))
			}
		}
		for key, ns := range m {
			want := filed[ns]
			if len(ns.items) != len(want) {
				return fmt.Errorf("negation %d key %s: %d buffered negatives, %d due entries", negIdx, key, len(ns.items), len(want))
			}
			for i, e := range ns.items {
				if e.TS != want[i] {
					return fmt.Errorf("negation %d key %s: negative %d has ts=%d, its due entry ts=%d", negIdx, key, i, e.TS, want[i])
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
// arrived (under the disorder bound). maxTS − K for static K; the monotone
// frontier when K is adaptive.
func (en *Engine) safe() event.Time {
	if !en.started {
		return minTime
	}
	if en.opts.Adaptive != nil {
		return en.frontier
	}
	return en.clock - en.opts.K
}

// advanceFrontier folds the controller's current effective K into the
// monotone frontier. Cheap (one atomic load); called around every clock
// move so a growing bound takes effect immediately and a shrinking one
// only lets future clock advances move the frontier faster.
func (en *Engine) advanceFrontier() {
	if en.opts.Adaptive == nil || !en.started {
		return
	}
	if cand := en.clock - en.opts.Adaptive.EffectiveK(); cand > en.frontier {
		en.frontier = cand
	}
}

const minTime = event.Time(-1 << 62)

// Process implements engine.Engine.
func (en *Engine) Process(e event.Event) []plan.Match {
	out := en.processOne(e, nil)
	en.lat.StageEnd(e.Seq, obsv.StageConstruct)
	en.maybePurge()
	en.publishGauges()
	return out
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
	var out []plan.Match
	for i := range batch {
		out = en.processOne(batch[i], out)
		en.lat.StageEnd(batch[i].Seq, obsv.StageConstruct)
	}
	en.maybePurge()
	en.publishGauges()
	return out
}

// processOne is the per-event pipeline shared by Process and ProcessBatch:
// admission (metrics, trace, late check, clock), AIS insertion with
// trigger-based construction, and the pending drain. Purging and gauge
// publication are the caller's responsibility.
func (en *Engine) processOne(e event.Event, out []plan.Match) []plan.Match {
	en.arrival++
	if !en.plan.Relevant(e.Type) {
		en.met.Irrelevant.Inc()
		return out
	}
	isOOO := en.started && e.TS < en.clock
	var lag event.Time
	if isOOO {
		lag = en.clock - e.TS
	}
	en.met.IncIn(isOOO, lag)
	if en.opts.Adaptive != nil {
		// Same observation point as Series.WatermarkLag — bound violators
		// included, so a late storm is evidence to grow K, not invisible.
		en.opts.Adaptive.ObserveLag(lag)
	}
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpAdmit, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq})
	}
	// Sample the frontier before the late check: every event admitted below
	// is then provably within the current effective K of the clock.
	en.advanceFrontier()
	if en.started && e.TS < en.safe() {
		if ad := en.opts.Adaptive; ad != nil && ad.Degraded() && e.TS >= en.clock-ad.NominalK() {
			// The event violates only the degradation-clamped bound, not the
			// nominal one: it was deliberately shed, not late.
			en.shedded++
			en.met.SheddedEvents.Inc()
			if en.trace != nil {
				en.trace.Trace(obsv.TraceEvent{Op: obsv.OpShed, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq})
			}
			return out
		}
		en.met.EventsLate.Inc()
		if en.trace != nil {
			en.trace.Trace(obsv.TraceEvent{Op: obsv.OpDrop, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq})
		}
		return out
	}
	if e.TS > en.clock || !en.started {
		en.clock = e.TS
		en.started = true
		en.advanceFrontier()
	}
	if !en.plan.ConstFalse {
		out = en.insert(e, isOOO, out)
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
// per batch on the ProcessBatch path.
func (en *Engine) publishGauges() {
	en.met.LiveState.Set(int64(en.StateSize()))
	if en.Keyed() {
		en.met.KeyGroups.Set(int64(en.kstacks.Groups()))
	}
	if en.prov {
		en.met.SetLineage(en.lineageLive, en.lineageBytes)
	}
	if ad := en.opts.Adaptive; ad != nil {
		en.met.SetBound(ad.EffectiveK(), ad.Degraded())
	}
}

// noteInsert records the instrumentation for one stack insertion: the push
// itself and any RIP repairs the insertion forced on the next stack.
func (en *Engine) noteInsert(st *ais.Stacks, e event.Event, pos int) {
	fixups := st.LastFixups()
	if fixups > 0 {
		en.met.Repairs.Add(uint64(fixups))
	}
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpStackPush, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq, N: pos})
		if fixups > 0 {
			en.trace.Trace(obsv.TraceEvent{Op: obsv.OpRepair, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq, N: fixups})
		}
	}
}

// insert routes the event to its key group: buffered as a negative, pushed
// on the group's stacks, and — when it can be the last-arriving member of a
// match — the trigger of a construction over that group. Events lacking the
// key cannot satisfy the key-equality predicates and are counted and dropped,
// as the predicate error they would raise ungrouped.
func (en *Engine) insert(e event.Event, isOOO bool, out []plan.Match) []plan.Match {
	key, ok := en.keyOf(e)
	if !ok {
		en.met.IncPredError(errMissingKey)
		return out
	}
	for _, negIdx := range en.plan.NegativesForType(e.Type) {
		if plan.EvalLocalScratch(en.plan.Negatives[negIdx].Local, e, en.localScratch, en.met.IncPredError) {
			en.insertNeg(negIdx, key, e)
			out = en.retract(negIdx, key, e, out)
		}
	}
	last := en.plan.Len() - 1
	for _, pos := range en.plan.PositionsForType(e.Type) {
		if !plan.EvalLocalScratch(en.plan.Positives[pos].Local, e, en.localScratch, en.met.IncPredError) {
			continue
		}
		inst, st := en.kstacks.Insert(key, pos, e)
		en.liveStack++
		en.noteInsert(st, e, pos)
		if pos == last || isOOO || en.opts.DisableTriggerOpt {
			if en.trace != nil {
				en.trace.Trace(obsv.TraceEvent{Op: obsv.OpTrigger, Engine: en.traceName, Type: e.Type, TS: e.TS, Seq: e.Seq, N: pos})
			}
			before := en.enumerated
			out = en.construct(st, key, inst, pos, out)
			en.met.Probes.Inc()
			if en.enumerated == before {
				en.met.EmptyProbes.Inc()
			}
		}
	}
	return out
}

// insertNeg buffers a negative in its key group's store and files it in the
// negation's expiry order.
func (en *Engine) insertNeg(negIdx int, key event.Value, e event.Event) {
	m := en.knegs[negIdx]
	ns := m[key]
	if ns == nil {
		ns = &negStore{}
		m[key] = ns
	}
	ns.insert(e)
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
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpHeartbeat, Engine: en.traceName, TS: ts})
	}
	out := en.drainPending(en.safe(), en.finalize, nil)
	en.since = en.opts.PurgeEvery // force the next purge check to run
	en.maybePurge()
	en.publishGauges()
	return out
}

// Flush implements engine.Engine: end of stream seals every pending match
// and makes every vulnerable one final.
func (en *Engine) Flush() []plan.Match {
	out := en.drainPending(math.MaxInt64, en.finalize, nil)
	// Whatever is still vulnerable is final: no negative can follow.
	clear(en.vuln)
	en.vulnDue = ais.Due[event.Value]{}
	en.liveVuln = 0
	en.met.LiveState.Set(int64(en.StateSize()))
	if en.prov {
		en.met.SetLineage(en.lineageLive, en.lineageBytes)
	}
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpFlush, Engine: en.traceName, TS: en.clock})
	}
	return out
}

// construct enumerates every match that contains the just-inserted instance
// at position pos, using only instances already in st, the trigger's key
// group. Earlier positions are bound walking down from pos, then later
// positions walking up; cross predicates fire as soon
// as their referenced slots are all bound (order-independent, see
// plan.CrossView.SatisfiedAt), except the trigger-pair ones, which
// pairHolds settles once per candidate. The binding buffer is engine
// scratch, copied only when a complete match emits.
func (en *Engine) construct(st *ais.Stacks, key event.Value, trigger *ais.Instance, pos int, out []plan.Match) []plan.Match {
	en.binding[pos] = trigger.Event
	mask := uint64(1) << uint(pos)
	if !en.cross.SatisfiedAt(pos, pos, mask, en.binding, en.met.IncPredError) {
		return out
	}
	en.walkStacks = st
	en.walkKey = key
	en.walkPos = pos
	en.walkTrigTS = trigger.Event.TS
	if en.prov {
		en.walkTrigSeq = trigger.Event.Seq
		en.walkVisited = 0
	}
	en.walkHoist = en.cross.Hoisted(pos)
	for p, idxs := range en.walkHoist {
		if len(idxs) == 0 {
			continue
		}
		n := st.Stack(p).Len()
		if cap(en.verdict[p]) < n {
			en.verdict[p] = make([]byte, n, 2*n)
		}
		en.verdict[p] = en.verdict[p][:n]
		clear(en.verdict[p])
	}
	return en.walkDown(pos-1, mask, out)
}

// pairHolds reports whether the trigger-pair predicates of slot p hold for
// the candidate at index i of its stack, evaluating them on the candidate's
// first visit under this trigger. Only then does it touch the binding.
func (en *Engine) pairHolds(p, i int, cand *ais.Instance) bool {
	v := &en.verdict[p][i]
	if *v == 0 {
		en.binding[p] = cand.Event
		*v = verdictFails
		if en.cross.Holds(en.walkHoist[p], en.binding, en.met.IncPredError) {
			*v = verdictHolds
		}
	}
	return *v == verdictHolds
}

// walkDown binds positions pos-1 .. 0 with instances earlier than the
// already-bound successor, then hands over to walkUp.
func (en *Engine) walkDown(p int, mask uint64, out []plan.Match) []plan.Match {
	if p < 0 {
		return en.walkUp(en.walkPos+1, mask, out)
	}
	s := en.walkStacks.Stack(p)
	lowTS := en.walkTrigTS - en.plan.Window
	hoisted := en.walkHoist != nil && len(en.walkHoist[p]) > 0
	for i := s.UpperBound(en.binding[p+1].TS) - 1; i >= 0; i-- {
		cand := s.At(i)
		if cand.Event.TS < lowTS {
			break
		}
		if en.prov {
			en.walkVisited++
		}
		if hoisted && !en.pairHolds(p, i, cand) {
			continue
		}
		en.binding[p] = cand.Event
		m := mask | 1<<uint(p)
		if en.cross.SatisfiedAt(en.walkPos, p, m, en.binding, en.met.IncPredError) {
			out = en.walkDown(p-1, m, out)
		}
	}
	return out
}

// walkUp binds positions walkPos+1 .. n-1 with instances later than the
// already-bound predecessor, emitting when the binding completes.
func (en *Engine) walkUp(p int, mask uint64, out []plan.Match) []plan.Match {
	if p >= en.plan.Len() {
		return en.emit(en.binding, out)
	}
	s := en.walkStacks.Stack(p)
	highTS := en.binding[0].TS + en.plan.Window
	hoisted := en.walkHoist != nil && len(en.walkHoist[p]) > 0
	for i := s.FirstAfter(en.binding[p-1].TS); i < s.Len(); i++ {
		cand := s.At(i)
		if cand.Event.TS > highTS {
			break
		}
		if en.prov {
			en.walkVisited++
		}
		if hoisted && !en.pairHolds(p, i, cand) {
			continue
		}
		en.binding[p] = cand.Event
		m := mask | 1<<uint(p)
		if en.cross.SatisfiedAt(en.walkPos, p, m, en.binding, en.met.IncPredError) {
			out = en.walkUp(p+1, m, out)
		}
	}
	return out
}

// emit routes a complete positive binding: sealed immediately when the safe
// clock already passed every negation gap; otherwise released as vulnerable
// (EmitThenRetract) or parked in the pending queue until it does. The
// scratch binding is copied here — the single allocation a match costs.
func (en *Engine) emit(binding []event.Event, out []plan.Match) []plan.Match {
	en.enumerated++
	events := make([]event.Event, len(binding))
	copy(events, binding)
	sealTS := minTime
	for negIdx := range en.plan.Negatives {
		_, hi := en.plan.GapBounds(negIdx, events)
		if hi > sealTS {
			sealTS = hi
		}
	}
	pm := pendingMatch{events: events, key: en.walkKey, sealTS: sealTS, madeSeq: en.arrival}
	if en.prov {
		pm.prov = en.lineageFor(pm)
		pm.prov.TriggerSeq = en.walkTrigSeq
		pm.prov.TriggerTS = en.walkTrigTS
		pm.prov.TriggerPos = en.walkPos
		pm.prov.Traversed = en.walkVisited
		en.met.LineageRecords.Inc()
	}
	if sealTS <= en.safe() {
		return en.finalize(pm, out)
	}
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
		l := en.vuln[pm.key]
		l.items = append(l.items, pm)
		en.vuln[pm.key] = l
		en.liveVuln++
		en.vulnDue.Insert(pm.sealTS, pm.key)
	}
	return out
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
			!en.plan.NegMatchesScratch(negIdx, neg, pm.events, en.negSkipFor(negIdx), en.negScratch, en.met.IncPredError) {
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
			en.met.LineageRecords.Inc()
		}
		en.met.AddMatch(true, 0, 0)
		if en.trace != nil {
			te := obsv.TraceEvent{Op: obsv.OpRetract, Engine: en.traceName, TS: m.Last().TS, Seq: m.EmitSeq, N: len(m.Events)}
			if en.prov {
				te.Match = m.Prov.MatchKey()
			}
			en.trace.Trace(te)
		}
		out = append(out, m)
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
	var out []plan.Match
	if p == EmitThenRetract {
		out = en.drainPending(math.MaxInt64, en.release, nil)
	}
	en.met.Switches.Inc()
	if en.trace != nil {
		en.trace.Trace(obsv.TraceEvent{Op: obsv.OpSwitch, Engine: en.traceName, Type: p.String(), TS: en.safe(), N: len(out)})
	}
	en.publishGauges()
	return out
}

// EmitPolicy returns the emission policy in force.
func (en *Engine) EmitPolicy() EmitPolicy { return en.opts.Emit }

// lineageFor builds the binding-derivable part of a pending match's lineage
// record (events, key, window, seal). Trigger details are added by emit;
// checkpoint-restored pendings get only this part, marked Truncated.
func (en *Engine) lineageFor(pm pendingMatch) *provenance.Record {
	rec := &provenance.Record{
		Kind:     provenance.KindInsert,
		Events:   provenance.Refs(pm.events),
		WindowLo: pm.events[0].TS,
		WindowHi: pm.events[0].TS + en.plan.Window,
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
	for negIdx := range en.plan.Negatives {
		// The store of the match's key group; nil when the group has no
		// buffered negatives — common, and trivially no invalidator.
		ns := en.knegs[negIdx][pm.key]
		if ns == nil {
			continue
		}
		lo, hi := en.plan.GapBounds(negIdx, pm.events)
		for i := ns.firstAfter(lo); i < ns.len() && ns.items[i].TS < hi; i++ {
			if en.plan.NegMatchesScratch(negIdx, ns.items[i], pm.events, en.negSkipFor(negIdx), en.negScratch, en.met.IncPredError) {
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
	if en.prov {
		rec := pm.prov
		if rec == nil {
			// Pending state restored from a checkpoint carries no lineage
			// (it is not checkpointed): rebuild what the binding proves and
			// mark the record truncated.
			rec = en.lineageFor(pm)
			rec.Truncated = true
			en.met.LineageRecords.Inc()
		}
		rec.EmitClock = en.clock
		m.Prov = rec
	}
	en.met.AddMatch(false, en.clock-m.Last().TS, en.arrival-pm.madeSeq)
	if en.trace != nil {
		te := obsv.TraceEvent{Op: obsv.OpEmit, Engine: en.traceName, TS: m.Last().TS, Seq: m.EmitSeq, N: len(m.Events)}
		if en.prov {
			te.Match = m.Prov.MatchKey()
		}
		en.trace.Trace(te)
	}
	return append(out, m)
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
		return safe - en.plan.Window
	}
	purged := en.kstacks.PurgeBefore(horizon)
	en.liveStack -= purged
	// 2·Window cannot overflow: the query analysis caps Window at 1<<60.
	negHorizon := safe - 2*en.plan.Window
	negPurged := 0
	for i := range en.negDue {
		m := en.knegs[i]
		en.negDue[i].PopBefore(negHorizon, func(ns *negStore) {
			if ns.len() == 0 || ns.items[0].TS >= negHorizon {
				// An earlier entry of this pass purged the store already.
				return
			}
			key := en.negKey(ns)
			negPurged += ns.purgeBefore(negHorizon)
			if ns.len() == 0 {
				delete(m, key)
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
		en.met.ObservePurge(purged + negPurged)
		if en.trace != nil {
			en.trace.Trace(obsv.TraceEvent{Op: obsv.OpPurge, Engine: en.traceName, TS: safe, N: purged + negPurged})
		}
	}
}

// StateSnapshot implements engine.Engine: a read-only view of the engine's
// live state. Not safe concurrently with Process.
func (en *Engine) StateSnapshot() *provenance.StateSnapshot {
	s := &provenance.StateSnapshot{
		Engine:        en.traceName,
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
	s.PurgeFrontier = s.Safe - en.plan.Window
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
			s.StackDepths[pos] += st.Stack(pos).Len()
		}
		groups = append(groups, provenance.KeyGroupStat{Key: key.String(), Size: st.Size()})
	})
	for negIdx, m := range en.knegs {
		for _, ns := range m {
			s.NegStoreSizes[negIdx] += ns.len()
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
