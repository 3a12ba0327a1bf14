// Package inorder is the reference kernel of the paper's point of departure:
// the classic SASE-style sequence scan and construction operator. It is
// exactly correct for streams that arrive in timestamp order — the oracle
// cross-checks that in tests — and it is the engine whose misbehaviour on
// out-of-order input the paper analyzes: its stacks record arrival order,
// its predecessor (RIP) pointers capture "most recent at arrival", and its
// purge trusts the arrival clock, so disorder produces missed matches and,
// for negation, premature (false-positive) output.
//
// The implementation deliberately preserves those assumptions rather than
// repairing them; the repairs are the contribution of the out-of-order
// kernel in internal/core, which every strategy of the library runs. Like
// fiba.Tree and the pointer AIS, this kernel is a reference and not a
// strategy: the experiments (internal/bench), the examples and the
// repository benchmark drive it directly, with no instruments.
package inorder

import (
	"math"

	"oostream/internal/event"
	"oostream/internal/plan"
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

// purgeWhile removes the longest prefix whose events satisfy pred.
func (s *stack) purgeWhile(pred func(event.Event) bool) {
	cut := 0
	for cut < len(s.items) && pred(s.items[cut].ev) {
		cut++
	}
	if cut == 0 {
		return
	}
	n := copy(s.items, s.items[cut:])
	s.items = s.items[:n]
	s.base += cut
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
	// pending holds full bindings waiting for their negation gaps to close
	// (only trailing negation ever has to wait under the in-order
	// assumption), due at sealTS; ties leave in completion order.
	pending queue.Queue[pendingMatch]
}

// pendingMatch is a binding whose negation gaps close at sealTS.
type pendingMatch struct {
	events []event.Event
	sealTS event.Time
}

// New builds an in-order engine for the plan.
func New(p *plan.Plan) *Engine {
	en := &Engine{
		plan:      p,
		stacks:    make([]*stack, p.Len()),
		negStores: make([][]event.Event, len(p.Negatives)),
	}
	for i := range en.stacks {
		en.stacks[i] = &stack{}
	}
	return en
}

// Process admits one event and returns the matches it completes or seals.
// A match's EmitClock is the clock at emission and its EmitSeq the arrival
// count, as the kernel stamps them.
func (en *Engine) Process(e event.Event) []plan.Match {
	en.arrival++
	if !en.plan.Relevant(e.Type) {
		return nil
	}
	// The classic engine trusts arrival order: its clock is the latest
	// arrival's timestamp, out-of-order or not.
	en.clock = e.TS
	if en.plan.ConstFalse {
		return nil
	}

	for _, negIdx := range en.plan.NegativesForType(e.Type) {
		if plan.EvalLocal(en.plan.Negatives[negIdx].Local, e, nil) {
			en.negStores[negIdx] = append(en.negStores[negIdx], e)
		}
	}
	var out []plan.Match
	for _, pos := range en.plan.PositionsForType(e.Type) {
		if !plan.EvalLocal(en.plan.Positives[pos].Local, e, nil) {
			continue
		}
		rip := -1
		if pos > 0 {
			rip = en.stacks[pos-1].topIndex()
		}
		en.stacks[pos].push(e, rip)
		if pos == en.plan.Len()-1 {
			out = en.construct(e, rip, out)
		}
	}
	out = en.drainPending(en.clock, out)
	en.purge()
	return out
}

// construct enumerates matches ending in the just-pushed last-position
// event by the classic RIP walk: at each earlier position, candidates are
// the instances at or below the RIP recorded by the successor.
func (en *Engine) construct(last event.Event, rip int, out []plan.Match) []plan.Match {
	n := en.plan.Len()
	binding := make([]event.Event, n)
	binding[n-1] = last
	boundMask := uint64(1) << uint(n-1)
	if n == 1 {
		if en.plan.CrossSatisfiedAt(0, boundMask, binding, nil) {
			out = en.emit(binding, out)
		}
		return out
	}
	var walk func(pos, limit int, mask uint64)
	walk = func(pos, limit int, mask uint64) {
		s := en.stacks[pos]
		for abs := limit; abs >= s.base; abs-- {
			inst := s.at(abs)
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
			if !en.plan.CrossSatisfiedAt(pos, m, binding, nil) {
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
	pm := pendingMatch{events: events, sealTS: sealTS}
	if sealTS <= en.clock {
		return en.finalize(pm, out)
	}
	en.pending.Insert(pm.sealTS, pm)
	return out
}

// drainPending finalizes, in seal order, the pending bindings sealing at or
// before through (the clock; the end of time at Flush).
func (en *Engine) drainPending(through event.Time, out []plan.Match) []plan.Match {
	en.pending.PopThrough(through, func(pm pendingMatch) {
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
			if en.plan.NegMatches(negIdx, t, pm.events, nil) {
				return out
			}
		}
	}
	fields, err := en.plan.Project(pm.events)
	if err != nil {
		return out
	}
	return append(out, plan.Match{
		Kind:      plan.Insert,
		Events:    pm.events,
		Fields:    fields,
		EmitSeq:   event.Seq(en.arrival),
		EmitClock: en.clock,
	})
}

// purge removes state the in-order assumption says is dead: instances (and
// negatives) older than clock − Window can no longer combine with any
// future arrival, which the engine believes has timestamp >= clock.
func (en *Engine) purge() {
	horizon := en.clock - en.plan.Window
	for _, s := range en.stacks {
		s.purgeWhile(func(e event.Event) bool { return e.TS < horizon })
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
		}
	}
}

// Flush ends the stream: no further negative can arrive, so every pending
// binding is final-checked and emitted.
func (en *Engine) Flush() []plan.Match {
	return en.drainPending(math.MaxInt64, nil)
}
