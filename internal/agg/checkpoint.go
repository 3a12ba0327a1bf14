package agg

import (
	"cmp"
	"fmt"
	"io"
	"math"
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
// are not serialized. Sealed is written only between a merged restore and
// the first event after it, for a group whose windows were emitted further
// than the operator's frontier says (group.sealed).
type ckGroup struct {
	Key    *event.Value `json:"key,omitempty"`
	Sealed *event.Time  `json:"sealed,omitempty"`
	Elems  []ckElem     `json:"elems"`
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
		if g.sealed != math.MinInt64 && (!en.sealedInit || g.sealed > en.sealed) {
			cg.Sealed = &g.sealed
		}
		g.run.All(func(k fiba.Key, p fiba.Partial, _ any) bool {
			cg.Elems = append(cg.Elems, ckElem{
				TS:     k.TS,
				Seq:    k.Seq,
				Count:  p.Count,
				SumI:   p.SumI,
				SumF:   event.JSONFloat(p.SumF),
				Min:    optVal(p.Min),
				Max:    optVal(p.Max),
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

// frontier is the highest window end the checkpointed operator had sealed,
// below every end when it had sealed none.
func (cf aggCheckpoint) frontier() event.Time {
	if !cf.SealedInit {
		return math.MinInt64
	}
	return cf.Sealed
}

// Restore rebuilds an operator, in the mode it ran in, from the next
// operator record of s, instrumented by env as NewWithEnv would: from one
// part, or from the records of s.Parts operators that each aggregated a
// share of one stream split by the GROUP BY key, merged into the one
// operator that would have seen the whole stream. p must be the same
// compiled plan the checkpointed engine ran with (the lateness bound travels
// in the checkpoint); restoreInner reads the sections after the operator's
// records and rebuilds the wrapped engine. Lineage citations are not
// checkpointed: records emitted for restored elements carry Truncated.
//
// Merged, the groups unite (one in two parts is not a split by key), the
// clock is the latest and the event count the sum. Operators that each
// watched their own clock have sealed through different windows: the merged
// one resumes from the earliest frontier, what a lagging part has not
// emitted being still owed, and a group sits out the windows its own
// operator had already emitted (group.sealed).
func Restore(p *plan.Plan, env engine.Env, s *engine.Sections, restoreInner func(*engine.Sections) (engine.Engine, error)) (*Engine, error) {
	files := make([]aggCheckpoint, s.Parts)
	front := event.Time(math.MaxInt64)
	for i := range files {
		if err := s.Next("aggregate", "lateness", &files[i]); err != nil {
			return nil, fmt.Errorf("agg: %w", err)
		}
		if files[i].Lateness != files[0].Lateness {
			return nil, fmt.Errorf("agg: checkpoint parts disagree on the lateness bound: %d against %d", files[i].Lateness, files[0].Lateness)
		}
		if files[i].Speculative && s.Parts > 1 {
			// Only sealed operators were ever split by key.
			return nil, fmt.Errorf("agg: a speculative checkpoint has one part, not %d", s.Parts)
		}
		front = min(front, files[i].frontier())
	}
	inner, err := restoreInner(s)
	if err != nil {
		return nil, err
	}
	en := NewWithEnv(p, inner, files[0].Speculative, files[0].Lateness, env)
	if front != math.MinInt64 {
		en.sealed, en.sealedInit = front, true
	}
	if pv := files[0].Previewed; pv != nil {
		en.previewed, en.previewInit = *pv, true
	}
	for _, cf := range files {
		en.clock = max(en.clock, cf.Clock)
		en.arrival += cf.Arrival
		en.elemSeq = max(en.elemSeq, cf.ElemSeq)
		for _, cg := range cf.Groups {
			var key event.Value
			if cg.Key != nil {
				key = *cg.Key
			}
			if en.byKey[mapKey(key, cg.Key != nil)] != nil {
				return nil, fmt.Errorf("agg: checkpoint holds group %s twice", key)
			}
			g := en.newGroup(key, cg.Key != nil)
			if g.sealed = cf.frontier(); cg.Sealed != nil {
				g.sealed = max(g.sealed, *cg.Sealed)
			}
			var last fiba.Key
			for i, ce := range cg.Elems {
				part := fiba.Partial{
					Count:  ce.Count,
					SumI:   ce.SumI,
					SumF:   float64(ce.SumF),
					Floaty: ce.Floaty,
				}
				if ce.Min != nil {
					part.Min = *ce.Min
				}
				if ce.Max != nil {
					part.Max = *ce.Max
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
