package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"oostream/internal/adaptive"
	"oostream/internal/ais"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/plan"
)

// checkpointVersion guards the JSON payload shape.
const checkpointVersion = 1

// dropLate is the one late policy, recorded in every checkpoint as versions
// that also had a best-effort policy (2) wrote it.
const dropLate = 1

// Checkpoint envelope: a fixed binary header protects the JSON payload
// against truncation and bit rot. Layout:
//
//	magic   [6]byte  "OOCKPT"
//	version byte     envelopeVersion
//	length  uint32le payload byte count
//	crc     uint32le CRC32 (IEEE) of the payload
//	payload []byte   JSON checkpointFile
//
// Version 1 checkpoints (bare JSON, written before the envelope existed)
// are still restorable: Restore sniffs the first byte.
var checkpointMagic = [6]byte{'O', 'O', 'C', 'K', 'P', 'T'}

const envelopeVersion = 2

// checkpointFile is the serialized engine state. Stack instances are
// stored as plain events; RIP pointers are rebuilt on restore by
// re-insertion (the RIP invariant is a pure function of stack contents).
// Key groups flatten away — they merge into one sorted list per position /
// negation, and restore re-derives each event's key — so the format is the
// same whatever the engine keys by.
type checkpointFile struct {
	Version    int                 `json:"version"`
	PlanSource string              `json:"planSource"`
	K          event.Time          `json:"k"`
	LatePolicy int                 `json:"latePolicy"`
	NoTrigOpt  bool                `json:"noTriggerOpt"`
	NoKeyed    bool                `json:"noKeyed,omitempty"`
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
}

type checkpointPending struct {
	Events  []event.Event `json:"events"`
	SealTS  event.Time    `json:"sealTS"`
	MadeSeq uint64        `json:"madeSeq"`
}

// flatStacks returns the engine's stack contents as one (TS, Seq)-sorted
// event list per position, merging the key groups (map iteration order must
// not leak into the serialized form).
func (en *Engine) flatStacks() [][]event.Event {
	out := make([][]event.Event, en.plan.Len())
	en.kstacks.Range(func(_ event.Value, st *ais.Stacks) {
		for pos := range out {
			for s, i := st.Stack(pos), 0; i < s.Len(); i++ {
				out[pos] = append(out[pos], s.At(i).Event)
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
			out[i] = append(out[i], ns.items...)
		}
		sortEvents(out[i])
	}
	return out
}

// sortEvents orders a merged list by (TS, Seq). Stable, so the events of a
// single group — already in that order, ties in arrival order — are written
// as their stack holds them.
func sortEvents(events []event.Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].Before(events[j]) })
}

// Checkpoint serializes the engine's full state (stacks, negative stores,
// pending matches, clocks) so that a Restore'd engine continues the stream
// exactly where this one stopped. The engine can keep processing after a
// checkpoint; the snapshot is taken synchronously.
//
// Metrics counters are NOT checkpointed: a restored engine starts fresh
// counters (operational metrics describe a process, not the computation).
//
// The format holds no vulnerable matches, so an engine that emits ahead of
// the seal (or still carries vulnerable output from when it did) refuses.
func (en *Engine) Checkpoint(w io.Writer) error {
	if en.opts.Emit == EmitThenRetract || en.liveVuln > 0 {
		return fmt.Errorf("strategy %q: %w", en.Name(), engine.ErrNoCheckpoint)
	}
	cf := checkpointFile{
		Version:    checkpointVersion,
		PlanSource: en.plan.Source,
		K:          en.opts.K,
		LatePolicy: dropLate,
		NoTrigOpt:  en.opts.DisableTriggerOpt,
		NoKeyed:    en.opts.DisableKeying,
		PurgeEvery: en.opts.PurgeEvery,
		Clock:      en.clock,
		Started:    en.started,
		Arrival:    en.arrival,
		Enumerated: en.enumerated,
		Since:      en.since,
		Stacks:     en.flatStacks(),
		NegStores:  en.flatNegStores(),
	}
	if ad := en.opts.Adaptive; ad != nil {
		st := ad.Export()
		cf.Adaptive = &st
		cf.Frontier = en.frontier
	}
	en.pending.Each(func(_ event.Time, pm pendingMatch) {
		cf.Pending = append(cf.Pending, checkpointPending{
			Events:  pm.events,
			SealTS:  pm.sealTS,
			MadeSeq: pm.madeSeq,
		})
	})
	payload, err := json.Marshal(cf)
	if err != nil {
		return err
	}
	var hdr [15]byte
	copy(hdr[:6], checkpointMagic[:])
	hdr[6] = envelopeVersion
	binary.LittleEndian.PutUint32(hdr[7:11], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[11:15], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readEnvelope consumes a version-2 envelope and returns the validated
// payload. The reader must be positioned at the magic.
func readEnvelope(r io.Reader) ([]byte, error) {
	var hdr [15]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint header truncated: %w", err)
	}
	if [6]byte(hdr[:6]) != checkpointMagic {
		return nil, fmt.Errorf("bad checkpoint magic %q", hdr[:6])
	}
	if hdr[6] != envelopeVersion {
		return nil, fmt.Errorf("checkpoint envelope version %d, want %d", hdr[6], envelopeVersion)
	}
	size := binary.LittleEndian.Uint32(hdr[7:11])
	want := binary.LittleEndian.Uint32(hdr[11:15])
	// The declared length is outside input (up to 4 GiB): the buffer grows
	// with the bytes that actually arrive, never ahead of them.
	payload, err := io.ReadAll(io.LimitReader(r, int64(size)))
	if err != nil {
		return nil, fmt.Errorf("read checkpoint payload: %w", err)
	}
	if uint32(len(payload)) != size {
		return nil, fmt.Errorf("checkpoint truncated: want %d payload bytes, got %d", size, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("checkpoint corrupt: CRC32 %08x, want %08x", got, want)
	}
	return payload, nil
}

// CountKeyless adds n to the events refused for lacking the partition key
// (errMissingKey): the ones the router of a partitioned checkpoint had
// counted in front of the engines whose state Restore merged.
func (en *Engine) CountKeyless(n uint64) { en.met.PredErrors.Add(n) }

// restoreKey returns the key group a checkpointed event goes back to. An
// event without the key (possible only in checkpoints written by an engine
// that keyed by nothing) is counted and dropped: it can never satisfy the
// key-equality predicates, so no match is lost.
func (en *Engine) restoreKey(e event.Event) (event.Value, bool) {
	key, ok := en.keyOf(e)
	if !ok {
		en.met.IncPredError(errMissingKey)
	}
	return key, ok
}

// readCheckpoint decodes one checkpoint (enveloped, or the bare JSON written
// before the envelope existed) and checks its shape against the plan.
func readCheckpoint(p *plan.Plan, r io.Reader) (checkpointFile, error) {
	var cf checkpointFile
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return cf, fmt.Errorf("read checkpoint: %w", err)
	}
	if first[0] == '{' {
		// Legacy version-1 checkpoint: bare JSON, no envelope.
		if err := json.NewDecoder(br).Decode(&cf); err != nil {
			return cf, fmt.Errorf("decode checkpoint: %w", err)
		}
	} else {
		payload, err := readEnvelope(br)
		if err != nil {
			return cf, err
		}
		if err := json.Unmarshal(payload, &cf); err != nil {
			return cf, fmt.Errorf("decode checkpoint: %w", err)
		}
	}
	if cf.Version != checkpointVersion {
		return cf, fmt.Errorf("checkpoint version %d, want %d", cf.Version, checkpointVersion)
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
	for i, pm := range cf.Pending {
		if len(pm.Events) != p.Len() {
			return cf, fmt.Errorf("checkpoint shape mismatch: pending binding %d holds %d events, the pattern has %d positions", i, len(pm.Events), p.Len())
		}
	}
	return cf, nil
}

// absorb merges another part of the same engine's state into cf: the state
// of engines that each saw a share of one stream, split by key. Lists
// concatenate (Restore sorts them), the clocks take the later reading, the
// event counters add up — so no restored binding was made after the merged
// arrival count — and of two controllers the one that has enforced the
// larger bound is kept, the bound the merged run stays equivalent to. Parts
// written under different options are not one engine's state.
func (cf *checkpointFile) absorb(o checkpointFile) error {
	if o.K != cf.K || o.NoTrigOpt != cf.NoTrigOpt || o.NoKeyed != cf.NoKeyed ||
		o.PurgeEvery != cf.PurgeEvery || (o.Adaptive == nil) != (cf.Adaptive == nil) {
		return fmt.Errorf("written under other options than the first part (K %d against %d, or the ablation switches)", o.K, cf.K)
	}
	cf.Clock = max(cf.Clock, o.Clock)
	cf.Frontier = max(cf.Frontier, o.Frontier)
	cf.Started = cf.Started || o.Started
	cf.Arrival += o.Arrival
	cf.Enumerated += o.Enumerated
	cf.Since = max(cf.Since, o.Since)
	for pos := range cf.Stacks {
		cf.Stacks[pos] = append(cf.Stacks[pos], o.Stacks[pos]...)
	}
	for i := range cf.NegStores {
		cf.NegStores[i] = append(cf.NegStores[i], o.NegStores[i]...)
	}
	cf.Pending = append(cf.Pending, o.Pending...)
	if o.Adaptive != nil && o.Adaptive.MaxK > cf.Adaptive.MaxK {
		cf.Adaptive = o.Adaptive
	}
	return nil
}

// Restore rebuilds an engine from a checkpoint: from one, or from the
// checkpoints of several engines that each ran the same query over a share
// of one stream split by key (the parts of a partitioned checkpoint), merged
// into the one engine that would have seen the whole stream. The plan must
// be compiled from the same query text the checkpointed engine ran (verified
// against the recorded canonical source); options are restored from the
// checkpoint, instruments come from env exactly as core.Options.Env hands
// them to New. A keyed engine restores from an unkeyed engine's checkpoint
// (and vice versa, modulo the recorded DisableKeying option): the format
// carries plain events and keys are recomputed on insertion.
//
// The payload is outside input even when the envelope's CRC holds (the
// bare-JSON form has none): its shape is checked against the plan before any
// of it becomes state the engine indexes by position.
//
// Truncated or corrupted checkpoints are rejected with a descriptive
// error: the envelope's length and CRC32 are validated before any state is
// deserialized, so a damaged snapshot can never restore garbage state.
func Restore(p *plan.Plan, env engine.Env, parts ...io.Reader) (*Engine, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("read checkpoint: no parts")
	}
	cf, err := readCheckpoint(p, parts[0])
	if err != nil {
		return nil, err
	}
	for i, r := range parts[1:] {
		o, err := readCheckpoint(p, r)
		if err == nil {
			err = cf.absorb(o)
		}
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i+1, err)
		}
	}
	opts := Options{
		K:                 cf.K,
		DisableTriggerOpt: cf.NoTrigOpt,
		DisableKeying:     cf.NoKeyed,
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
	// A position's list is (TS, Seq)-sorted within a part; across parts it is
	// sorted here, so each stack is rebuilt by appends.
	for pos, events := range cf.Stacks {
		sortEvents(events)
		for _, e := range events {
			if key, ok := en.restoreKey(e); ok {
				en.kstacks.Insert(key, pos, e)
				en.liveStack++
			}
		}
	}
	for i, events := range cf.NegStores {
		sortEvents(events)
		for _, e := range events {
			if key, ok := en.restoreKey(e); ok {
				en.insertNeg(i, key, e)
			}
		}
	}
	for _, pm := range cf.Pending {
		// Every slot of a complete binding carries the partition key (the
		// equality chain spans all positions), so slot 0 is representative.
		key, _ := en.keyOf(pm.Events[0])
		// The file lists pending in any order (a heap's array, before the
		// queue): inserting sorts it by sealTS, file order among equals, the
		// parts in the order given.
		en.pending.Insert(pm.SealTS, pendingMatch{
			events:  pm.Events,
			key:     key,
			sealTS:  pm.SealTS,
			madeSeq: pm.MadeSeq,
		})
	}
	// Lineage is not checkpointed: restored pendings have nil prov, so if
	// provenance is enabled on the restored engine their matches emit
	// truncated records, and the state snapshot reports the truncation.
	en.restored = true
	en.publishGauges()
	return en, nil
}
