// Package recovery provides the durable substrate of the fault-tolerant
// runtime: a directory holding periodic engine checkpoints plus a
// segmented write-ahead log (WAL) of every event offered since the last
// checkpoint. Together they let a crashed pipeline restore and replay to
// exactly its pre-crash state.
//
// Durability protocol:
//
//   - every offered event is appended to the WAL before the engine
//     processes it (no admitted event can be lost to a crash);
//   - after a processing step emits matches, a commit marker records the
//     new cumulative emission count (the monotone match sequence number
//     that replay uses to suppress duplicate emissions);
//   - every CheckpointEvery events the supervisor snapshots the engine:
//     the checkpoint file is written atomically (temp file + fsync +
//     rename + directory fsync) in the one durable format (internal/engine's
//     envelope around the store's header section and the engine's
//     sections), and names the WAL segment replay resumes from; the WAL
//     rotates to a fresh segment at the same instant.
//
// Recovery (Store.Recover) scans checkpoints newest-first, skips any that
// are truncated or corrupt (falling back to the previous valid one — a
// fallback is always replayable because segment pruning never outruns the
// oldest retained checkpoint), then reads the WAL from the checkpoint's
// segment onward, tolerating a torn final record.
//
// The last Retain checkpoints are kept; older checkpoints and the WAL
// segments only they referenced are pruned after each new checkpoint. The
// store remembers each retained checkpoint's resume segment (read once per
// file at Open, known for the ones it writes), so pruning reads no file.
package recovery

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"oostream/internal/engine"
	"oostream/internal/event"
)

// File naming. Sequence numbers are zero-padded hex so lexical order is
// numeric order.
const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ck"
	walPrefix  = "wal-"
	walSuffix  = ".seg"
)

// ckptHeader is the store's section, the first of a checkpoint file:
// supervisor counters, the WAL resume point and opaque supervisor
// metadata. The engine's sections follow it.
type ckptHeader struct {
	// Matches is the cumulative match-emission count at the checkpoint.
	Matches uint64 `json:"matches"`
	// Ingested is the cumulative offered-event count at the checkpoint.
	Ingested uint64 `json:"ingested"`
	// WalSeg is the first WAL segment to replay after this checkpoint.
	WalSeg uint64 `json:"walSeg"`
	// Meta is supervisor state (the duplicate horizon).
	Meta json.RawMessage `json:"meta,omitempty"`
}

// Options configure a Store.
type Options struct {
	// Retain is how many checkpoints to keep; default 3, minimum 1.
	Retain int
	// SegmentEvents rotates the WAL after this many event records even
	// without a checkpoint; default 4096.
	SegmentEvents int
	// Sync fsyncs the WAL after every record. Default off: records reach
	// the OS per-append (surviving process death) and are fsynced at
	// rotation and checkpoint; full per-record durability against power
	// loss costs a disk flush per event.
	Sync bool
	// DisableFsync turns off all fsync calls (checkpoints included) for
	// harnesses that simulate crashes in-process, where the page cache
	// survives by construction. Never set it in production.
	DisableFsync bool
}

func (o Options) withDefaults() Options {
	if o.Retain < 1 {
		o.Retain = 3
	}
	if o.SegmentEvents <= 0 {
		o.SegmentEvents = 4096
	}
	return o
}

// Store manages one pipeline's durable directory.
type Store struct {
	dir  string
	opts Options

	seg       *os.File // current WAL segment (nil until first append)
	segSeq    uint64   // sequence of the current (or next) segment
	segEvents int      // event records in the current segment
	nextCkpt  uint64   // sequence for the next checkpoint file
	appended  uint64   // cumulative offered events (continues across recovery)
	killed    bool

	// walSeg is the resume segment of each checkpoint file whose header
	// could be read; a checkpoint missing from it pins every segment.
	walSeg map[uint64]uint64
}

// Open prepares a Store over dir, creating it if needed. Of the existing
// state it reads only each checkpoint's resume segment; call Recover before
// the first Append when resuming an existing directory.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, walSeg: make(map[uint64]uint64)}
	ckpts, segs, err := s.scan()
	if err != nil {
		return nil, err
	}
	for _, seq := range ckpts {
		if h, _, err := readCkptFile(s.ckptPath(seq)); err == nil {
			s.walSeg[seq] = h.WalSeg
		}
	}
	if n := len(ckpts); n > 0 {
		s.nextCkpt = ckpts[n-1] + 1
	}
	if n := len(segs); n > 0 {
		// Never append to a pre-existing segment (its tail may be torn);
		// fresh appends start a new one.
		s.segSeq = segs[n-1] + 1
	}
	return s, nil
}

// scan lists checkpoint and segment sequence numbers in ascending order.
func (s *Store) scan() (ckpts, segs []uint64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			return 0, false
		}
		v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
		return v, err == nil
	}
	for _, e := range entries {
		if v, ok := parse(e.Name(), ckptPrefix, ckptSuffix); ok {
			ckpts = append(ckpts, v)
		} else if v, ok := parse(e.Name(), walPrefix, walSuffix); ok {
			segs = append(segs, v)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return ckpts, segs, nil
}

func (s *Store) ckptPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix))
}

func (s *Store) segPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", walPrefix, seq, walSuffix))
}

func (s *Store) append(rec walRecord) error {
	if s.killed {
		return fmt.Errorf("recovery store is killed")
	}
	if s.seg == nil {
		f, err := os.OpenFile(s.segPath(s.segSeq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		s.seg = f
		s.segEvents = 0
	}
	if err := appendRecord(s.seg, rec); err != nil {
		return err
	}
	if s.opts.Sync && !s.opts.DisableFsync {
		return s.seg.Sync()
	}
	return nil
}

// Append logs one offered event ahead of processing.
func (s *Store) Append(e event.Event) error {
	if err := s.append(walRecord{E: &e}); err != nil {
		return err
	}
	s.appended++
	s.segEvents++
	if s.segEvents >= s.opts.SegmentEvents {
		return s.rotate()
	}
	return nil
}

// CommitMatches records that n cumulative match emissions are delivered.
func (s *Store) CommitMatches(n uint64) error {
	return s.append(walRecord{N: &n})
}

// AppendFlush records end-of-stream.
func (s *Store) AppendFlush() error {
	return s.append(walRecord{F: true})
}

// rotate seals the current segment and directs future appends to a new
// one. The new segment's file is created eagerly: a checkpoint written
// right after a rotation references the new segment by number, and a
// reopening Store derives its numbering from the files it finds — a
// number that never reached the directory would be reused by the next
// generation, silently placing new events below the checkpoint's replay
// horizon.
func (s *Store) rotate() error {
	if s.seg != nil {
		if !s.opts.DisableFsync {
			if err := s.seg.Sync(); err != nil {
				s.seg.Close()
				s.seg = nil
				return err
			}
		}
		if err := s.seg.Close(); err != nil {
			s.seg = nil
			return err
		}
		s.seg = nil
	}
	s.segSeq++
	s.segEvents = 0
	f, err := os.OpenFile(s.segPath(s.segSeq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.seg = f
	if !s.opts.DisableFsync {
		return s.syncDir()
	}
	return nil
}

// Checkpoint durably snapshots the pipeline: save serializes the engine,
// meta carries supervisor state, and matches is the cumulative emission count.
// The WAL rotates so replay after this checkpoint starts at a fresh
// segment; obsolete checkpoints and segments are pruned. Returns the
// checkpoint's byte size.
func (s *Store) Checkpoint(save func(w io.Writer) error, meta any, matches uint64) (int, error) {
	if s.killed {
		return 0, fmt.Errorf("recovery store is killed")
	}
	if err := s.rotate(); err != nil {
		return 0, err
	}
	h := ckptHeader{Matches: matches, Ingested: s.appended, WalSeg: s.segSeq}
	if meta != nil {
		raw, err := json.Marshal(meta)
		if err != nil {
			return 0, err
		}
		h.Meta = raw
	}
	blob, err := engine.Seal(func(w io.Writer) error {
		if err := engine.WriteSection(w, &h); err != nil {
			return err
		}
		if err := save(w); err != nil {
			return fmt.Errorf("engine snapshot: %w", err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := s.writeFileAtomic(s.ckptPath(s.nextCkpt), blob); err != nil {
		return 0, err
	}
	s.walSeg[s.nextCkpt] = h.WalSeg
	s.nextCkpt++
	s.prune()
	return len(blob), nil
}

// writeFileAtomic writes data so a crash leaves either the old state or
// the complete new file: temp file in the same directory, write, fsync,
// rename, directory fsync.
func (s *Store) writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-ckpt-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if !s.opts.DisableFsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return s.syncDir()
}

func (s *Store) syncDir() error {
	if s.opts.DisableFsync {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// prune removes checkpoints beyond the retention horizon and WAL segments
// no retained checkpoint can replay from. Pruning is best-effort: an
// undeletable file is left for the next pass.
func (s *Store) prune() {
	ckpts, segs, err := s.scan()
	if err != nil {
		return
	}
	if len(ckpts) > s.opts.Retain {
		for _, seq := range ckpts[:len(ckpts)-s.opts.Retain] {
			if os.Remove(s.ckptPath(seq)) == nil {
				delete(s.walSeg, seq)
			}
		}
		ckpts = ckpts[len(ckpts)-s.opts.Retain:]
	}
	// The oldest retained checkpoint needs segments >= its WalSeg. One whose
	// header could not be read at Open needs everything (conservative: never
	// prune a segment a fallback might replay).
	minSeg := s.segSeq
	for _, seq := range ckpts {
		if ws, ok := s.walSeg[seq]; ok {
			minSeg = min(minSeg, ws)
		} else {
			minSeg = 0
		}
	}
	for _, seq := range segs {
		if seq < minSeg && seq != s.segSeq {
			os.Remove(s.segPath(seq))
		}
	}
}

// readCkptFile reads and validates one checkpoint file: its header, and
// the engine's sections after it.
func readCkptFile(path string) (ckptHeader, *engine.Sections, error) {
	var h ckptHeader
	blob, err := os.ReadFile(path)
	if err != nil {
		return h, nil, err
	}
	sec, err := engine.Open(bytes.NewReader(blob))
	if err == nil {
		err = sec.Next("store", "walSeg", &h)
	}
	if err != nil {
		return h, nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return h, sec, nil
}

// Recovered is the durable state read back after a crash.
type Recovered struct {
	// Snapshot is the engine's sections to restore from; nil means start a
	// fresh engine and replay from the beginning.
	Snapshot *engine.Sections
	// Meta is the supervisor metadata recorded with the snapshot.
	Meta json.RawMessage
	// Replay holds the WAL events after the snapshot, in offer order.
	Replay []event.Event
	// CkptMatches is the cumulative emission count as of the snapshot.
	CkptMatches uint64
	// Matches is the durable emission count at the crash: replayed
	// emissions numbered at or below it were already delivered and must
	// be suppressed.
	Matches uint64
	// Ingested is the total offered-event count (snapshot + replay).
	Ingested uint64
	// Flushed reports that end-of-stream was durably recorded.
	Flushed bool
	// CorruptCheckpoints counts checkpoint files skipped as damaged.
	CorruptCheckpoints int
	// TornSegments counts WAL segments that ended in a torn record.
	TornSegments int
}

// Recover reads the directory's durable state: the newest valid
// checkpoint (skipping damaged ones) plus the WAL suffix after it. A
// checkpoint met in a layout older than the envelope fails it with
// engine.ErrHorizon, and no file is removed. The store continues
// appending after the recovered state; call it before the first Append
// when resuming an existing directory.
func (s *Store) Recover() (*Recovered, error) {
	ckpts, segs, err := s.scan()
	if err != nil {
		return nil, err
	}
	rec := &Recovered{}
	replayFrom := uint64(0)
	for i := len(ckpts) - 1; i >= 0; i-- {
		h, sec, err := readCkptFile(s.ckptPath(ckpts[i]))
		if errors.Is(err, engine.ErrHorizon) {
			// An older layout is not damage: skipped, it would resume from
			// an older state or none, and the next checkpoint's pruning
			// would delete what it holds.
			return nil, err
		}
		if err != nil {
			rec.CorruptCheckpoints++
			continue
		}
		if sec.More() {
			rec.Snapshot = sec
		}
		rec.Meta = h.Meta
		rec.CkptMatches = h.Matches
		rec.Matches = h.Matches
		rec.Ingested = h.Ingested
		replayFrom = h.WalSeg
		break
	}
	for i, seq := range segs {
		if seq < replayFrom {
			continue
		}
		data, err := os.ReadFile(s.segPath(seq))
		if err != nil {
			return nil, err
		}
		res, err := parseSegment(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(s.segPath(seq)), err)
		}
		if res.torn {
			rec.TornSegments++
			if i != len(segs)-1 {
				// A torn record in a non-final segment means durable
				// records vanished; replaying past the gap would diverge.
				return nil, fmt.Errorf("%s: torn record before the final segment", filepath.Base(s.segPath(seq)))
			}
		}
		rec.Replay = append(rec.Replay, res.events...)
		if res.matches > rec.Matches {
			rec.Matches = res.matches
		}
		if res.flushed {
			rec.Flushed = true
		}
	}
	rec.Ingested += uint64(len(rec.Replay))
	s.appended = rec.Ingested
	return rec, nil
}

// Kill simulates a crash for tests: file handles are dropped without
// syncing and every subsequent operation fails. Data already appended
// survives (each record reached the OS in a single write).
func (s *Store) Kill() {
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
	s.killed = true
}

// Close cleanly seals the current segment.
func (s *Store) Close() error {
	if s.killed {
		return nil
	}
	s.killed = true
	if s.seg == nil {
		return nil
	}
	var err error
	if !s.opts.DisableFsync {
		err = s.seg.Sync()
	}
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.seg = nil
	return err
}
