package difftest

import (
	"fmt"

	"oostream/internal/event"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// validateLineage checks that every emitted match carries a lineage record
// and, for a pattern query, checks the record against the
// query plan and the event universe: the citations must resolve to real
// stream events, bind the pattern in strictly increasing timestamp order
// inside the window, satisfy every local and cross predicate, agree on
// the key group, and — for retractions — cite an invalidating negative
// event that actually falls in one of the match's negation gaps. It
// returns the first violation as text, or "".
func validateLineage(p *plan.Plan, universe map[event.Seq]event.Event, ms []plan.Match) string {
	for _, m := range ms {
		if m.Prov == nil {
			return fmt.Sprintf("match %s: provenance enabled but no lineage record", m.Key())
		}
		if p.Agg != nil {
			continue // a window's record cites no pattern binding
		}
		if msg := validateRecord(p, universe, m); msg != "" {
			return fmt.Sprintf("match %s: %s\n  lineage: %s", m.Key(), msg, m.Prov)
		}
	}
	return ""
}

func validateRecord(p *plan.Plan, universe map[event.Seq]event.Event, m plan.Match) string {
	rec := m.Prov
	wantKind := provenance.KindInsert
	if m.Kind == plan.Retract {
		wantKind = provenance.KindRetract
	}
	if rec.Kind != wantKind {
		return fmt.Sprintf("lineage kind %q does not match match kind %q", rec.Kind, wantKind)
	}
	if rec.MatchKey() != m.Key() {
		return fmt.Sprintf("lineage identity %q does not match match identity %q", rec.MatchKey(), m.Key())
	}
	if len(rec.Events) != p.Len() {
		return fmt.Sprintf("lineage cites %d events, pattern has %d positions", len(rec.Events), p.Len())
	}

	// Citations resolve against the stream, in position order.
	binding := make([]event.Event, len(rec.Events))
	for i, ref := range rec.Events {
		ev, ok := universe[ref.Seq]
		if !ok {
			return fmt.Sprintf("cited event #%d does not exist in the stream", ref.Seq)
		}
		if ev.Type != ref.Type || ev.TS != ref.TS {
			return fmt.Sprintf("citation %s disagrees with stream event %s", ref, ev)
		}
		if ref.Pos != i {
			return fmt.Sprintf("citation %d carries position %d", i, ref.Pos)
		}
		if ev.Type != p.Positives[i].Type {
			return fmt.Sprintf("position %d wants type %q, lineage cites %q", i, p.Positives[i].Type, ev.Type)
		}
		binding[i] = ev
	}

	// Sequence order and window bounds.
	for i := 1; i < len(binding); i++ {
		if binding[i].TS <= binding[i-1].TS {
			return fmt.Sprintf("cited events not in strictly increasing timestamp order at position %d", i)
		}
	}
	if rec.WindowLo != binding[0].TS || rec.WindowHi != binding[0].TS+p.Window {
		return fmt.Sprintf("window [%d,%d] does not equal [first.TS, first.TS+W] = [%d,%d]",
			rec.WindowLo, rec.WindowHi, binding[0].TS, binding[0].TS+p.Window)
	}
	if span := binding[len(binding)-1].TS - binding[0].TS; span > p.Window {
		return fmt.Sprintf("cited span %d exceeds window %d", span, p.Window)
	}

	// Every predicate the query places must hold on the cited binding.
	var perr error
	sink := func(err error) { perr = err }
	for i, ev := range binding {
		if !plan.EvalLocal(p.Positives[i].Local, ev, sink) {
			return fmt.Sprintf("cited event at position %d fails a local predicate (%v)", i, perr)
		}
	}
	for i := range binding {
		mask := uint64(1)<<(i+1) - 1 // slots 0..i bound, the engines' build order
		if !p.CrossSatisfiedAt(i, mask, binding, sink) {
			return fmt.Sprintf("cited binding fails a cross predicate at slot %d (%v)", i, perr)
		}
	}

	// Key-group consistency: when the record names a key group, every
	// cited event must agree on the key attribute.
	if rec.Key != "" {
		if rec.KeyAttr == "" {
			return "lineage names a key group but no key attribute"
		}
		first, ok := binding[0].Attr(rec.KeyAttr)
		if !ok {
			return fmt.Sprintf("cited event lacks the key attribute %q", rec.KeyAttr)
		}
		for i := 1; i < len(binding); i++ {
			v, ok := binding[i].Attr(rec.KeyAttr)
			if !ok || !v.Equal(first) {
				return fmt.Sprintf("cited events disagree on key attribute %q", rec.KeyAttr)
			}
		}
	}

	// Retractions must cite the invalidating negative event, and it must
	// really fall in one of this match's negation gaps.
	if rec.Kind == provenance.KindRetract {
		inv := rec.InvalidatedBy
		if inv == nil {
			return "retraction lineage lacks InvalidatedBy"
		}
		ev, ok := universe[inv.Seq]
		if !ok {
			return fmt.Sprintf("invalidating event #%d does not exist in the stream", inv.Seq)
		}
		if ev.Type != inv.Type || ev.TS != inv.TS {
			return fmt.Sprintf("invalidating citation %s disagrees with stream event %s", inv, ev)
		}
		negs := p.NegativesForType(ev.Type)
		if len(negs) == 0 {
			return fmt.Sprintf("invalidating event type %q matches no negation component", ev.Type)
		}
		inGap := false
		for _, negIdx := range negs {
			lo, hi := p.GapBounds(negIdx, binding)
			if ev.TS > lo && ev.TS < hi {
				inGap = true
				break
			}
		}
		if !inGap {
			return fmt.Sprintf("invalidating event %s falls in none of the match's negation gaps", inv)
		}
	} else if rec.InvalidatedBy != nil {
		return "insert lineage carries InvalidatedBy"
	}
	return ""
}

// seqUniverse indexes a stream by sequence number for citation lookup.
func seqUniverse(events []event.Event) map[event.Seq]event.Event {
	out := make(map[event.Seq]event.Event, len(events))
	for _, e := range events {
		out[e.Seq] = e
	}
	return out
}
