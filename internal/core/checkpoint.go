package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"oostream/internal/adaptive"
	"oostream/internal/ais"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/plan"
)

// dropLate is the one late policy, recorded in every checkpoint as versions
// that also had a best-effort policy (2) wrote it.
const dropLate = 1

// checkpointFile is the serialized engine state. Stack instances are
// stored as the plain events the stacks hold. Key groups flatten away — they
// merge into one sorted list per position / negation, and restore re-derives
// each event's key — so the format is the same whatever the engine keys by.
type checkpointFile struct {
	PlanSource string              `json:"planSource"`
	K          event.Time          `json:"k"`
	LatePolicy int                 `json:"latePolicy"`
	NoTrigOpt  bool                `json:"noTriggerOpt"`
	PurgeEvery int                 `json:"purgeEvery"`
	Clock      event.Time          `json:"clock"`
	Started    bool                `json:"started"`
	Arrival    uint64              `json:"arrival"`
	Enumerated uint64              `json:"enumerated"`
	Since      int                 `json:"since"`
	Stacks     [][]event.Event     `json:"stacks"`
	NegStores  [][]event.Event     `json:"negStores"`
	Pending    []checkpointPending `json:"pending"`
	// Frontier and Adaptive carry the dynamic-K state: the monotone safe
	// clock and the controller (config, learned histogram, hysteresis
	// streaks), so a restored engine resumes with the learned bound instead
	// of re-learning from the initial one. Absent (zero/nil) for static-K
	// engines — and absent from pre-adaptive checkpoints, which therefore
	// restore unchanged.
	Frontier event.Time      `json:"frontier,omitempty"`
	Adaptive *adaptive.State `json:"adaptive,omitempty"`
	// Emit is the emission policy and Vulnerable the emitted matches that can
	// still be retracted, key group after key group, each group's in emission
	// order. Both are absent from a sealing engine that holds none, so its
	// checkpoint reads as it did before they existed.
	Emit       EmitPolicy          `json:"emit,omitempty"`
	Vulnerable []checkpointPending `json:"vulnerable,omitempty"`
}

type checkpointPending struct {
	Events  []event.Event `json:"events"`
	SealTS  event.Time    `json:"sealTS"`
	MadeSeq uint64        `json:"madeSeq"`
}

// flatStacks returns the engine's stack contents as one (TS, Seq)-sorted
// event list per position, merging the key groups (map iteration order must
// not leak into the serialized form). Positions that share a stack list the
// same events.
func (en *Engine) flatStacks() [][]event.Event {
	out := make([][]event.Event, en.plan.Len())
	en.kstacks.Range(func(_ event.Value, st *ais.Stacks) {
		for pos := range out {
			for s, i := st.Stack(pos), 0; i < s.Len(); i++ {
				out[pos] = append(out[pos], *s.At(i))
			}
		}
	})
	for pos := range out {
		sortEvents(out[pos])
	}
	return out
}

// flatNegStores returns the buffered negatives as one sorted list per
// negation, merging the key groups.
func (en *Engine) flatNegStores() [][]event.Event {
	out := make([][]event.Event, len(en.plan.Negatives))
	for i, m := range en.knegs {
		for _, ns := range m {
			for j := 0; j < ns.Len(); j++ {
				out[i] = append(out[i], *ns.At(j))
			}
		}
		sortEvents(out[i])
	}
	return out
}

// flatVulnerable returns the vulnerable matches key group after key group,
// the groups ordered by their first match's first event (map iteration order
// must not leak into the serialized form), each in emission order: the order
// its retractions leave in. Only a group's own order is state — a negative
// probes one group — so restore may file them back group by group.
func (en *Engine) flatVulnerable() []checkpointPending {
	lists := make([][]pendingMatch, 0, len(en.vuln))
	for _, l := range en.vuln {
		lists = append(lists, l.items)
	}
	sort.Slice(lists, func(i, j int) bool { return lists[i][0].events[0].Before(lists[j][0].events[0]) })
	var out []checkpointPending
	for _, items := range lists {
		for _, pm := range items {
			out = append(out, pm.checkpointed())
		}
	}
	return out
}

// checkpointed is a binding's serialized form (lineage is not checkpointed).
func (pm pendingMatch) checkpointed() checkpointPending {
	return checkpointPending{Events: pm.events, SealTS: pm.sealTS, MadeSeq: pm.madeSeq}
}

// restoredMatch rebuilds a checkpointed binding in its key group. Every slot
// of a complete binding carries the partition key (the equality chain spans
// all positions), so slot 0 is representative.
func (en *Engine) restoredMatch(cp checkpointPending) pendingMatch {
	key, _ := en.keyOf(cp.Events[0])
	return pendingMatch{events: cp.Events, key: key, sealTS: cp.SealTS, madeSeq: cp.MadeSeq}
}

// sortEvents orders a merged list by (TS, Seq). Stable, so the events of a
// single group — already in that order, ties in arrival order — are written
// as their stack holds them.
func sortEvents(events []event.Event) { slices.SortStableFunc(events, byTSSeq) }

// byTSSeq is the order of a checkpoint's stack and negative-store lists.
func byTSSeq(a, b event.Event) int { return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Seq, b.Seq)) }

// Checkpoint writes the engine's full state (stacks, negative stores,
// pending matches, clocks) as the kernel's section, so that a Restore'd
// engine continues the stream exactly where this one stopped. The engine can keep processing after a
// checkpoint; the snapshot is taken synchronously.
//
// Metrics counters are NOT checkpointed: a restored engine starts fresh
// counters (operational metrics describe a process, not the computation).
func (en *Engine) Checkpoint(w io.Writer) error {
	cf := checkpointFile{
		PlanSource: en.plan.Source,
		K:          en.opts.K,
		LatePolicy: dropLate,
		NoTrigOpt:  en.opts.DisableTriggerOpt,
		PurgeEvery: en.opts.PurgeEvery,
		Clock:      en.clock,
		Started:    en.started,
		Arrival:    en.arrival,
		Enumerated: en.enumerated,
		Since:      en.since,
		Stacks:     en.flatStacks(),
		NegStores:  en.flatNegStores(),
		Emit:       en.opts.Emit,
		Vulnerable: en.flatVulnerable(),
	}
	if ad := en.opts.Adaptive; ad != nil {
		st := ad.Export()
		cf.Adaptive = &st
		cf.Frontier = en.frontier
	}
	en.pending.Each(func(_ event.Time, pm pendingMatch) {
		cf.Pending = append(cf.Pending, pm.checkpointed())
	})
	return engine.WriteSection(w, cf)
}

// restoreKey returns the key group a checkpointed event goes back to. An
// event without the key is counted and dropped: it can never satisfy the
// key-equality predicates, so no match is lost.
func (en *Engine) restoreKey(e event.Event) (event.Value, bool) {
	key, ok := en.keyOf(e)
	if !ok {
		en.tap.IncPredError(errMissingKey)
	}
	return key, ok
}

// readCheckpoint decodes the next kernel record and checks its shape
// against the plan.
func readCheckpoint(p *plan.Plan, s *engine.Sections) (checkpointFile, error) {
	var cf checkpointFile
	if err := s.Next("kernel", "planSource", &cf); err != nil {
		return cf, err
	}
	if cf.PlanSource != p.Source {
		return cf, fmt.Errorf("checkpoint is for query %q, not %q", cf.PlanSource, p.Source)
	}
	if len(cf.Stacks) != p.Len() || len(cf.NegStores) != len(p.Negatives) {
		return cf, fmt.Errorf("checkpoint shape mismatch: %d stacks / %d negstores", len(cf.Stacks), len(cf.NegStores))
	}
	if cf.LatePolicy != dropLate {
		return cf, fmt.Errorf("checkpoint written under late policy %d: this version drops every event beyond K (policy %d)", cf.LatePolicy, dropLate)
	}
	for i, lists := range [][][]event.Event{cf.Stacks, cf.NegStores} {
		for j, events := range lists {
			if !slices.IsSortedFunc(events, byTSSeq) {
				return cf, fmt.Errorf("checkpoint damaged: %s list %d is not in (TS, Seq) order", [...]string{"stack", "negative-store"}[i], j)
			}
		}
	}
	for i, list := range [][]checkpointPending{cf.Pending, cf.Vulnerable} {
		for j, pm := range list {
			if len(pm.Events) != p.Len() {
				return cf, fmt.Errorf("checkpoint shape mismatch: %s binding %d holds %d events, the pattern has %d positions", [...]string{"pending", "vulnerable"}[i], j, len(pm.Events), p.Len())
			}
		}
	}
	return cf, nil
}

// Restore rebuilds an engine from the next kernel record of s. The plan
// must be compiled from the same query text the checkpointed engine ran
// (verified against the recorded canonical source); options are restored
// from the checkpoint, instruments come from env exactly as
// core.Options.Env hands them to New. The format carries plain events and
// keys are recomputed on insertion.
//
// The record is outside input even when the envelope's CRC holds: its shape
// is checked against the plan, and each list's order against the one the
// writer keeps, before any of it becomes state the engine indexes.
func Restore(p *plan.Plan, env engine.Env, s *engine.Sections) (*Engine, error) {
	cf, err := readCheckpoint(p, s)
	if err != nil {
		return nil, err
	}
	opts := Options{
		K:                 cf.K,
		Emit:              cf.Emit,
		DisableTriggerOpt: cf.NoTrigOpt,
		PurgeEvery:        cf.PurgeEvery,
		Env:               env,
	}
	if cf.Adaptive != nil {
		ctrl, err := adaptive.Restore(*cf.Adaptive)
		if err != nil {
			return nil, fmt.Errorf("restore adaptive controller: %w", err)
		}
		opts.Adaptive = ctrl
	}
	en, err := New(p, opts)
	if err != nil {
		return nil, err
	}
	if cf.Adaptive != nil {
		en.frontier = cf.Frontier
	}
	en.clock = cf.Clock
	en.started = cf.Started
	en.arrival = cf.Arrival
	en.enumerated = cf.Enumerated
	en.since = cf.Since
	// Each list is (TS, Seq)-sorted as written, so each stack is rebuilt by
	// appends. A shared stack is rebuilt from its first position's list: a
	// version that kept a stack per position wrote there a superset of the
	// others', the first position being non-final (its instances purge
	// later), and this one the same list at each.
	for pos, events := range cf.Stacks {
		if en.lead != nil && en.lead[pos] != pos {
			continue
		}
		for _, e := range events {
			if key, ok := en.restoreKey(e); ok {
				en.kstacks.Insert(key, pos, e)
				en.liveStack++
			}
		}
	}
	for i, events := range cf.NegStores {
		for _, e := range events {
			if key, ok := en.restoreKey(e); ok {
				en.insertNeg(i, key, e)
			}
		}
	}
	for _, cp := range cf.Pending {
		// The file lists pending in any order (a heap's array, before the
		// queue): inserting sorts it by sealTS, file order among equals.
		pm := en.restoredMatch(cp)
		en.pending.Insert(pm.sealTS, pm)
	}
	for _, cp := range cf.Vulnerable {
		en.fileVulnerable(en.restoredMatch(cp))
	}
	// Lineage is not checkpointed: restored pendings have nil prov, so if
	// provenance is enabled on the restored engine their matches emit
	// truncated records, and the state snapshot reports the truncation.
	en.restored = true
	en.publishGauges()
	return en, nil
}
