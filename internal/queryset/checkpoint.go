package queryset

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"oostream/internal/engine"
	"oostream/internal/event"
)

// setCheckpoint is the Set's record: the fan-out cadence and the registry.
// Each registered query's engine writes its own sections after it, in
// registration order, so live Register/Unregister survives a kill/recover:
// the recovered Set rebuilds exactly the query registry the checkpoint
// captured. The levee in front writes its record before it
// (internal/kslack).
type setCheckpoint struct {
	// SinceAdvance is the fan-out cadence position, captured so a restored
	// Set advances its engines at exactly the original points — recovery
	// replay must reproduce the original emission order, not merely the
	// multiset.
	SinceAdvance int `json:"sinceAdvance,omitempty"`
	// Queries are the per-query namespaces, in registration order.
	Queries []queryCheckpoint `json:"queries"`
}

// queryCheckpoint is one query's namespace: identity, the canonical query
// source (recompiled on restore) and the prefix-gate state.
type queryCheckpoint struct {
	ID     string `json:"id"`
	Source string `json:"source"`
	// Gates is the keyed prefix-gate table; GateAll the unkeyed gate. Both
	// are captured verbatim: a conservative reconstruction would dispatch
	// events the original Set's gates skipped, advancing inner-engine
	// clocks at different points and reordering negation-sealing emissions
	// relative to an uninterrupted run.
	Gates   []gateEntry `json:"gates,omitempty"`
	GateAll *event.Time `json:"gateAll,omitempty"`
}

// gateEntry is one keyed prefix-gate record: the last timestamp the
// query's first positive component type was seen for the key group.
type gateEntry struct {
	Key event.Value `json:"key"`
	TS  event.Time  `json:"ts"`
}

// Checkpoint implements engine.Engine: the Set's section, then each
// query's engine's, in registration order.
func (s *Set) Checkpoint(w io.Writer) error {
	cp := setCheckpoint{
		SinceAdvance: s.sinceAdvance,
		Queries:      make([]queryCheckpoint, 0, len(s.order)),
	}
	for _, q := range s.order {
		qc := queryCheckpoint{ID: q.id, Source: q.p.Source}
		for key, ts := range q.gateByKey {
			qc.Gates = append(qc.Gates, gateEntry{Key: key, TS: ts})
		}
		// Map iteration order is random: order by (TS, canonical key) for
		// stable bytes.
		slices.SortFunc(qc.Gates, func(a, b gateEntry) int {
			return cmp.Or(cmp.Compare(a.TS, b.TS), strings.Compare(a.Key.String(), b.Key.String()))
		})
		if q.gateAllSet {
			ts := q.gateAll
			qc.GateAll = &ts
		}
		cp.Queries = append(cp.Queries, qc)
	}
	if err := engine.WriteSection(w, &cp); err != nil {
		return err
	}
	for _, q := range s.order {
		if err := q.en.Checkpoint(w); err != nil {
			return fmt.Errorf("queryset: checkpoint query %q: %w", q.id, err)
		}
	}
	return nil
}

// Restore rebuilds a Set from the next registry record of s and its
// queries' sections after it, with the Compile and RestoreEngine factories
// of opts. The restored Set is an exact
// continuation: registry, prefix gates, and fan-out cadence all resume where
// the checkpoint was taken, so a recovered run emits the same matches in the
// same order as an uninterrupted one.
func Restore(opts Options, sec *engine.Sections) (*Set, error) {
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	if opts.Compile == nil || opts.RestoreEngine == nil {
		return nil, fmt.Errorf("queryset: Restore requires Options.Compile and Options.RestoreEngine")
	}
	var cp setCheckpoint
	if err := sec.Next("query set", "queries", &cp); err != nil {
		return nil, fmt.Errorf("queryset: %w", err)
	}
	s.sinceAdvance = cp.SinceAdvance
	for _, qc := range cp.Queries {
		// Register's rules hold for a listed id too: a repeated one would be
		// dispatched twice, every match of it emitted twice.
		if qc.ID == "" {
			return nil, fmt.Errorf("queryset: checkpoint lists query id %q: an id must be non-empty", qc.ID)
		}
		if _, dup := s.queries[qc.ID]; dup {
			return nil, fmt.Errorf("queryset: checkpoint lists query id %q twice", qc.ID)
		}
		p, err := opts.Compile(qc.Source)
		if err != nil {
			return nil, fmt.Errorf("queryset: recompile query %q: %w", qc.ID, err)
		}
		en, err := opts.RestoreEngine(qc.ID, p, sec)
		if err != nil {
			return nil, fmt.Errorf("queryset: restore query %q: %w", qc.ID, err)
		}
		s.attach(&queryState{id: qc.ID, p: p, en: en})
		q := s.queries[qc.ID]
		for _, g := range qc.Gates {
			if q.gateByKey != nil {
				// MapKey re-canonicalizes after the JSON round-trip so the
				// restored key is identical to what KeyOf will produce.
				q.gateByKey[g.Key.MapKey()] = g.TS
			}
		}
		if qc.GateAll != nil {
			q.gateAll, q.gateAllSet = *qc.GateAll, true
		}
	}
	return s, nil
}
