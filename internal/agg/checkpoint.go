package agg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/fiba"
	"oostream/internal/plan"
)

// Checkpoint envelope, following the internal/core layout:
//
//	magic   [6]byte  "OOAGGT"
//	version byte     aggEnvelopeVersion
//	length  uint32le payload byte count
//	crc     uint32le CRC32 (IEEE) of the payload
//	payload []byte   JSON aggCheckpoint
//	inner   []byte   the wrapped engine's own checkpoint stream
//
// The inner engine's checkpoint follows the envelope verbatim; Restore
// hands the remainder of the reader to the inner restore function.
var aggMagic = [6]byte{'O', 'O', 'A', 'G', 'G', 'T'}

const aggEnvelopeVersion = 1

// aggCheckpoint is the serialized operator state. Only sealed mode is
// checkpointable: speculative previews are compensated state downstream
// consumers hold, which a restore cannot reconstruct.
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
}

// ckGroup is one key group: its GROUP BY value (absent when the query is
// ungrouped) and its elements in strictly ascending key order, so the
// restore rebuilds each run by appends. The folds over a run are caches and
// are not serialized.
type ckGroup struct {
	Key   *event.Value `json:"key,omitempty"`
	Elems []ckElem     `json:"elems"`
}

// ckElem is one run element. Min/Max are pointers because the zero
// event.Value is invalid and refuses to marshal (COUNT partials carry no
// values).
type ckElem struct {
	TS     event.Time   `json:"ts"`
	Seq    uint64       `json:"seq"`
	Count  int64        `json:"count"`
	SumI   int64        `json:"sumI,omitempty"`
	SumF   float64      `json:"sumF,omitempty"`
	Min    *event.Value `json:"min,omitempty"`
	Max    *event.Value `json:"max,omitempty"`
	Floaty bool         `json:"floaty,omitempty"`
	Match  string       `json:"match"`
}

// Checkpoint implements engine.Engine for sealed-mode operators over a
// checkpointable inner engine.
func (en *Engine) Checkpoint(w io.Writer) error {
	if en.speculative {
		return fmt.Errorf("agg: speculative aggregation: %w", engine.ErrNoCheckpoint)
	}
	// The envelope leads the stream, so an inner engine that refuses must be
	// found out before anything is written.
	var inner bytes.Buffer
	if err := en.inner.Checkpoint(&inner); err != nil {
		return fmt.Errorf("agg: inner engine %q: %w", en.inner.Name(), err)
	}
	cf := aggCheckpoint{
		Lateness:   en.lateness,
		Clock:      en.clock,
		Arrival:    en.arrival,
		ElemSeq:    en.elemSeq,
		Sealed:     en.sealed,
		SealedInit: en.sealedInit,
		Groups:     make([]ckGroup, 0, len(en.groups)),
	}
	for _, g := range en.groups {
		cg := ckGroup{Elems: make([]ckElem, 0, g.run.Size())}
		if g.has {
			key := g.key
			cg.Key = &key
		}
		g.run.All(func(k fiba.Key, p fiba.Partial, aux any) bool {
			cg.Elems = append(cg.Elems, ckElem{
				TS:     k.TS,
				Seq:    k.Seq,
				Count:  p.Count,
				SumI:   p.SumI,
				SumF:   p.SumF,
				Min:    optVal(p.Min),
				Max:    optVal(p.Max),
				Floaty: p.Floaty,
				Match:  aux.(*elemAux).matchKey,
			})
			return true
		})
		cf.Groups = append(cf.Groups, cg)
	}
	payload, err := json.Marshal(&cf)
	if err != nil {
		return err
	}
	var hdr [15]byte
	copy(hdr[:6], aggMagic[:])
	hdr[6] = aggEnvelopeVersion
	binary.LittleEndian.PutUint32(hdr[7:11], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[11:15], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err = w.Write(inner.Bytes())
	return err
}

// Restore rebuilds a sealed-mode operator from a checkpoint, instrumented
// by env as NewWithEnv would. p must be the same compiled plan the
// checkpointed engine ran with (the lateness bound travels in the
// checkpoint); restoreInner consumes the remainder of the stream and
// rebuilds the wrapped engine. Lineage citations are not checkpointed:
// records emitted for restored elements carry Truncated.
func Restore(p *plan.Plan, env engine.Env, r io.Reader, restoreInner func(io.Reader) (engine.Engine, error)) (*Engine, error) {
	var hdr [15]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("agg: checkpoint header truncated: %w", err)
	}
	if [6]byte(hdr[:6]) != aggMagic {
		return nil, fmt.Errorf("agg: bad checkpoint magic %q", hdr[:6])
	}
	if hdr[6] != aggEnvelopeVersion {
		return nil, fmt.Errorf("agg: checkpoint envelope version %d, want %d", hdr[6], aggEnvelopeVersion)
	}
	size := binary.LittleEndian.Uint32(hdr[7:11])
	want := binary.LittleEndian.Uint32(hdr[11:15])
	// The declared length is outside input (up to 4 GiB): the buffer grows
	// with the bytes that actually arrive, never ahead of them.
	payload, err := io.ReadAll(io.LimitReader(r, int64(size)))
	if err != nil {
		return nil, fmt.Errorf("agg: read checkpoint payload: %w", err)
	}
	if uint32(len(payload)) != size {
		return nil, fmt.Errorf("agg: checkpoint truncated: want %d payload bytes, got %d", size, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("agg: checkpoint corrupt: CRC32 %08x, want %08x", got, want)
	}
	var cf aggCheckpoint
	if err := json.Unmarshal(payload, &cf); err != nil {
		return nil, fmt.Errorf("agg: decode checkpoint: %w", err)
	}
	inner, err := restoreInner(r)
	if err != nil {
		return nil, err
	}
	en := NewWithEnv(p, inner, false, cf.Lateness, env)
	en.clock = cf.Clock
	en.arrival = cf.Arrival
	en.elemSeq = cf.ElemSeq
	en.sealed = cf.Sealed
	en.sealedInit = cf.SealedInit
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
			part := fiba.Partial{
				Count:  ce.Count,
				SumI:   ce.SumI,
				SumF:   ce.SumF,
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
			g.run.Insert(key, part, &elemAux{matchKey: ce.Match})
			en.elems++
			en.byMatch[ce.Match] = elemRef{group: g, key: key}
			// Keys minted from here on must not collide with a restored one.
			if ce.Seq >= en.elemSeq {
				en.elemSeq = ce.Seq + 1
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
