package agg

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/fiba"
	"oostream/internal/plan"
)

// aggCheckpoint is the serialized operator state.
type aggCheckpoint struct {
	// Lateness is the operator's disorder bound, persisted so a restore
	// needs only the plan and the byte stream.
	Lateness   event.Time `json:"lateness"`
	Clock      event.Time `json:"clock"`
	Arrival    uint64     `json:"arrival"`
	ElemSeq    uint64     `json:"elemSeq"`
	Sealed     event.Time `json:"sealed"`
	SealedInit bool       `json:"sealedInit"`
	Groups     []ckGroup  `json:"groups"`
	// Speculative marks the preview+revision mode and Previewed is its
	// previewed frontier (absent before the first preview). A sealed
	// operator writes neither, so its checkpoint reads as before they
	// existed.
	Speculative bool        `json:"speculative,omitempty"`
	Previewed   *event.Time `json:"previewed,omitempty"`
}

// ckGroup is one key group: its GROUP BY value (absent when the query is
// ungrouped) and its elements in strictly ascending key order, so the
// restore rebuilds each run by appends. The folds over a run are caches and
// are not serialized.
type ckGroup struct {
	Key *event.Value `json:"key,omitempty"`
	// Merged is the group's own emitted frontier, which a version that merged
	// partitioned checkpoints wrote after such a restore. That state is
	// refused (engine.ErrHorizon), not read.
	Merged json.RawMessage `json:"sealed,omitempty"`
	Elems  []ckElem        `json:"elems"`
	// Emitted is what a speculative operator previewed for the group's
	// windows that can still be revised, by ascending end: a revision after
	// the restore retracts exactly what went out.
	Emitted []ckPreview `json:"emitted,omitempty"`
}

// ckPreview is one previewed window value of a group.
type ckPreview struct {
	End   event.Time  `json:"end"`
	Value event.Value `json:"value"`
	Count int64       `json:"count"`
}

// ckElem is one run element: its key and partial. (Checkpoints written
// before elements lost their match identity also carry a "match" member,
// which a restore ignores.) Min/Max are pointers because the zero
// event.Value is invalid and refuses to marshal (COUNT partials carry no
// values).
type ckElem struct {
	TS     event.Time      `json:"ts"`
	Seq    uint64          `json:"seq"`
	Count  int64           `json:"count"`
	SumI   int64           `json:"sumI,omitempty"`
	SumF   event.JSONFloat `json:"sumF,omitempty"`
	Min    *event.Value    `json:"min,omitempty"`
	Max    *event.Value    `json:"max,omitempty"`
	Floaty bool            `json:"floaty,omitempty"`
}

// Checkpoint implements engine.Engine: the operator's section, then the
// inner engine's.
func (en *Engine) Checkpoint(w io.Writer) error {
	cf := aggCheckpoint{
		Lateness:   en.lateness,
		Clock:      en.clock,
		Arrival:    en.arrival,
		ElemSeq:    en.elemSeq,
		Sealed:     en.sealed,
		SealedInit: en.sealedInit,
		Groups:     make([]ckGroup, 0, len(en.groups)),
	}
	if en.speculative {
		cf.Speculative = true
		if en.previewInit {
			cf.Previewed = &en.previewed
		}
	}
	for _, g := range en.groups {
		cg := ckGroup{Elems: make([]ckElem, 0, g.run.Size())}
		if g.has {
			key := g.key
			cg.Key = &key
		}
		g.run.All(func(k fiba.Key, p fiba.Partial, _ any) bool {
			cg.Elems = append(cg.Elems, ckElem{
				TS:     k.TS,
				Seq:    k.Seq,
				Count:  p.Count,
				SumI:   p.SumI,
				SumF:   event.JSONFloat(p.SumF),
				Min:    optVal(p.Min()),
				Max:    optVal(p.Max()),
				Floaty: p.Floaty,
			})
			return true
		})
		for end, av := range g.emitted {
			cg.Emitted = append(cg.Emitted, ckPreview{End: end, Value: av.Value, Count: av.Count})
		}
		slices.SortFunc(cg.Emitted, func(a, b ckPreview) int { return cmp.Compare(a.End, b.End) })
		cf.Groups = append(cf.Groups, cg)
	}
	if err := engine.WriteSection(w, &cf); err != nil {
		return err
	}
	if err := en.inner.Checkpoint(w); err != nil {
		return fmt.Errorf("agg: inner engine %q: %w", en.inner.Name(), err)
	}
	return nil
}

// Restore rebuilds an operator, in the mode it ran in, from the next
// operator record of s, instrumented by env as NewWithEnv would. p must be
// the same compiled plan the checkpointed engine ran with (the lateness bound
// travels in the checkpoint); restoreInner reads the sections after the
// operator's record and rebuilds the wrapped engine. Lineage citations are
// not checkpointed: records emitted for restored elements carry Truncated.
func Restore(p *plan.Plan, env engine.Env, s *engine.Sections, restoreInner func(*engine.Sections) (engine.Engine, error)) (*Engine, error) {
	var cf aggCheckpoint
	if err := s.Next("aggregate", "lateness", &cf); err != nil {
		return nil, fmt.Errorf("agg: %w", err)
	}
	for _, cg := range cf.Groups {
		if cg.Merged != nil {
			return nil, fmt.Errorf("agg: a group carries its own emitted frontier: %w", engine.ErrHorizon)
		}
	}
	inner, err := restoreInner(s)
	if err != nil {
		return nil, err
	}
	en := NewWithEnv(p, inner, cf.Speculative, cf.Lateness, env)
	if cf.SealedInit {
		en.sealed, en.sealedInit = cf.Sealed, true
	}
	if pv := cf.Previewed; pv != nil {
		en.previewed, en.previewInit = *pv, true
	}
	en.clock = cf.Clock
	en.arrival = cf.Arrival
	en.elemSeq = cf.ElemSeq
	for _, cg := range cf.Groups {
		var key event.Value
		if cg.Key != nil {
			key = *cg.Key
		}
		if en.byKey[mapKey(key, cg.Key != nil)] != nil {
			return nil, fmt.Errorf("agg: checkpoint holds group %s twice", key)
		}
		g := en.newGroup(key, cg.Key != nil)
		var last fiba.Key
		for i, ce := range cg.Elems {
			var min, max event.Value
			if ce.Min != nil {
				min = *ce.Min
			}
			if ce.Max != nil {
				max = *ce.Max
			}
			part, ok := fiba.Partial{
				Count:  ce.Count,
				SumI:   ce.SumI,
				SumF:   float64(ce.SumF),
				Floaty: ce.Floaty,
			}.WithMinMax(min, max)
			if !ok {
				return nil, fmt.Errorf("agg: checkpoint element %d of group %s has a MIN or MAX that is not a number", i, g.key)
			}
			key := fiba.Key{TS: ce.TS, Seq: ce.Seq}
			if i > 0 && !last.Less(key) {
				return nil, fmt.Errorf("agg: checkpoint elements out of order in group %s: %v after %v", g.key, key, last)
			}
			last = key
			g.run.Insert(key, part, nil)
			en.elems++
			// Keys minted from here on must not collide with a restored one.
			if ce.Seq >= en.elemSeq {
				en.elemSeq = ce.Seq + 1
			}
		}
		for _, pv := range cg.Emitted {
			if !en.speculative {
				return nil, fmt.Errorf("agg: sealed checkpoint holds previews in group %s", g.key)
			}
			g.emitted[pv.End] = en.aggValue(g, pv.End, pv.Value, pv.Count)
		}
	}
	return en, nil
}

// optVal boxes a value for the wire, eliding the invalid zero value
// (whose MarshalJSON fails by design).
func optVal(v event.Value) *event.Value {
	if !v.Valid() {
		return nil
	}
	c := v
	return &c
}
