package queryset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"oostream/internal/event"
)

// checkpointVersion is the Set's durable format version. Version 1 is the
// single-engine native envelope (internal/core, wrapped in the OOCKPT
// magic); the multi-query format is version 2: one namespaced record per
// registered query — identity, canonical source, prefix-gate table, and the
// inner engine's own opaque state blob — so live Register/Unregister
// survives a kill/recover: the recovered Set rebuilds exactly the query
// registry the checkpoint captured. The levee in front writes its buffer
// beside it (internal/kslack); a version-2 file written before the Set sat
// behind a levee holds both in one object, which restores unchanged.
const checkpointVersion = 2

// setCheckpoint is the serialized form of a Set.
type setCheckpoint struct {
	Version int `json:"version"`
	// SinceAdvance is the fan-out cadence position, captured so a restored
	// Set advances its engines at exactly the original points — recovery
	// replay must reproduce the original emission order, not merely the
	// multiset.
	SinceAdvance int `json:"sinceAdvance,omitempty"`
	// Queries are the per-query namespaces, in registration order.
	Queries []queryCheckpoint `json:"queries"`
}

// queryCheckpoint is one query's namespace: identity, the canonical query
// source (recompiled on restore), the prefix-gate state, and the inner
// engine's own opaque checkpoint blob.
type queryCheckpoint struct {
	ID     string `json:"id"`
	Source string `json:"source"`
	Engine []byte `json:"engine"`
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

// Checkpoint implements engine.Engine, serializing the Set in the v2
// format. Every inner engine must itself support checkpointing (the native
// strategy does); otherwise an error is returned and nothing is written.
func (s *Set) Checkpoint(w io.Writer) error {
	cp := setCheckpoint{
		Version:      checkpointVersion,
		SinceAdvance: s.sinceAdvance,
		Queries:      make([]queryCheckpoint, 0, len(s.order)),
	}
	for _, q := range s.order {
		var blob bytes.Buffer
		if err := q.en.Checkpoint(&blob); err != nil {
			return fmt.Errorf("queryset: checkpoint query %q: %w", q.id, err)
		}
		qc := queryCheckpoint{ID: q.id, Source: q.p.Source, Engine: blob.Bytes()}
		for key, ts := range q.gateByKey {
			qc.Gates = append(qc.Gates, gateEntry{Key: key, TS: ts})
		}
		// Map iteration order is random; canonicalize for stable bytes.
		sortGates(qc.Gates)
		if q.gateAllSet {
			ts := q.gateAll
			qc.GateAll = &ts
		}
		cp.Queries = append(cp.Queries, qc)
	}
	return json.NewEncoder(w).Encode(&cp)
}

// sortGates orders gate entries by (TS, canonical key string) so
// checkpoint bytes are deterministic for identical state.
func sortGates(gs []gateEntry) {
	less := func(a, b gateEntry) bool {
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.Key.String() < b.Key.String()
	}
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && less(gs[j], gs[j-1]); j-- {
			gs[j], gs[j-1] = gs[j-1], gs[j]
		}
	}
}

// Restore rebuilds a Set from a v2 checkpoint, with the Compile and
// RestoreEngine factories of opts. The restored Set is an exact
// continuation: registry, prefix gates, and fan-out cadence all resume where
// the checkpoint was taken, so a recovered run emits the same matches in the
// same order as an uninterrupted one.
func Restore(opts Options, r io.Reader) (*Set, error) {
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	if opts.Compile == nil || opts.RestoreEngine == nil {
		return nil, fmt.Errorf("queryset: Restore requires Options.Compile and Options.RestoreEngine")
	}
	var cp setCheckpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("queryset: decode checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("queryset: checkpoint version %d, want %d", cp.Version, checkpointVersion)
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
		en, err := opts.RestoreEngine(qc.ID, p, bytes.NewReader(qc.Engine))
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
