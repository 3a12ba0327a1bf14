package recovery

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/event"
)

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	opts.DisableFsync = true
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mkEvent(i int) event.Event {
	return event.Event{
		Type:  "A",
		TS:    event.Time(i * 10),
		Seq:   uint64(i + 1),
		Attrs: event.Attrs{"id": event.Int(int64(i % 3))}.List(),
	}
}

// saveTag writes tag as the engine's one section.
func saveTag(tag string) func(io.Writer) error {
	return func(w io.Writer) error { return engine.WriteSection(w, tag) }
}

// snapshot reads back the engine section saveTag wrote, "" for none.
func snapshot(t *testing.T, rec *Recovered) string {
	t.Helper()
	var tag string
	if rec.Snapshot != nil {
		if err := rec.Snapshot.Next("engine", "", &tag); err != nil {
			t.Fatal(err)
		}
	}
	return tag
}

func appendN(t *testing.T, s *Store, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := s.Append(mkEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverEmptyDir: a fresh directory recovers to nothing.
func TestRecoverEmptyDir(t *testing.T) {
	s := testStore(t, Options{})
	rec, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Replay) != 0 || rec.Matches != 0 || rec.Flushed {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
}

// TestWALRoundTripAfterKill: events, commit markers, and the flush marker
// appended before an in-process kill all recover, in order.
func TestWALRoundTripAfterKill(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true, SegmentEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 10) // spans three segments (4+4+2)
	if err := s.CommitMatches(3); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitMatches(7); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFlush(); err != nil {
		t.Fatal(err)
	}
	s.Kill()
	if err := s.Append(mkEvent(99)); err == nil {
		t.Fatal("append after kill succeeded")
	}

	s2, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Replay) != 10 {
		t.Fatalf("replay has %d events, want 10", len(rec.Replay))
	}
	for i, e := range rec.Replay {
		if e.Seq != uint64(i+1) {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if rec.Matches != 7 {
		t.Fatalf("Matches = %d, want 7 (highest commit marker)", rec.Matches)
	}
	if !rec.Flushed {
		t.Fatal("flush marker lost")
	}
	if rec.Ingested != 10 || s2.appended != 10 {
		t.Fatalf("Ingested = %d/%d, want 10", rec.Ingested, s2.appended)
	}
}

// TestCheckpointTrimsReplay: events before a checkpoint come back in the
// snapshot, events after it in the replay, and counters carry across.
func TestCheckpointTrimsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 5)
	if err := s.CommitMatches(2); err != nil {
		t.Fatal(err)
	}
	type meta struct{ Clock int }
	bytesWritten, err := s.Checkpoint(saveTag("ENGINE-STATE"), meta{Clock: 40}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytesWritten <= 15 {
		t.Fatalf("checkpoint reported %d bytes", bytesWritten)
	}
	appendN(t, s, 5, 3)
	if err := s.CommitMatches(4); err != nil {
		t.Fatal(err)
	}
	s.Kill()

	s2, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshot(t, rec); got != "ENGINE-STATE" {
		t.Fatalf("snapshot = %q", got)
	}
	if !strings.Contains(string(rec.Meta), `"Clock":40`) {
		t.Fatalf("meta = %s", rec.Meta)
	}
	if len(rec.Replay) != 3 || rec.Replay[0].Seq != 6 {
		t.Fatalf("replay = %d events starting at seq %d, want 3 from 6",
			len(rec.Replay), rec.Replay[0].Seq)
	}
	if rec.CkptMatches != 2 || rec.Matches != 4 {
		t.Fatalf("matches ckpt=%d durable=%d, want 2 and 4", rec.CkptMatches, rec.Matches)
	}
	if rec.Ingested != 8 {
		t.Fatalf("Ingested = %d, want 8", rec.Ingested)
	}
}

// TestTornTailTolerated: a partial final record (simulating a crash
// mid-write) is dropped silently; everything before it recovers.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 4)
	s.Kill()

	segs, err := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 4, len(blob) - 20, len(blob) - 1} {
		if err := os.WriteFile(segs[0], blob[:len(blob)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{DisableFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s2.Recover()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(rec.Replay) >= 4 {
			t.Fatalf("cut %d: torn record replayed (%d events)", cut, len(rec.Replay))
		}
		if rec.TornSegments != 1 && cut != len(blob)-20 {
			// cutting exactly at a record boundary is a clean (not torn) tail
			if got := len(rec.Replay); got != 3 {
				t.Fatalf("cut %d: %d events, torn=%d", cut, got, rec.TornSegments)
			}
		}
	}
}

// TestMidLogCorruptionErrors: damage to a durable record with records
// behind it must fail recovery loudly, not silently drop events.
func TestMidLogCorruptionErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 6)
	s.Kill()

	segs, _ := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[12] ^= 0xFF // payload byte of the first record
	if err := os.WriteFile(segs[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recover(); err == nil {
		t.Fatal("mid-log corruption recovered silently")
	}
}

// TestCorruptCheckpointFallsBack: a damaged newest checkpoint is skipped
// and recovery proceeds from the previous valid one, with the longer WAL
// replay that entails.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true, Retain: 3})
	if err != nil {
		t.Fatal(err)
	}
	save := saveTag
	appendN(t, s, 0, 3)
	if _, err := s.Checkpoint(save("CKPT-1"), nil, 1); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 3, 3)
	if _, err := s.Checkpoint(save("CKPT-2"), nil, 2); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 6, 2)
	s.Kill()

	ckpts, err := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"+ckptSuffix))
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("checkpoints: %v %v", ckpts, err)
	}
	for name, damage := range map[string]func([]byte) []byte{
		"bitflip":  func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 0x01; return b },
		"truncate": func(b []byte) []byte { return b[:len(b)/2] },
		"magic":    func(b []byte) []byte { b = append([]byte(nil), b...); b[2] ^= 0x01; return b },
		"version":  func(b []byte) []byte { b = append([]byte(nil), b...); b[6] ^= 0x02; return b },
		"empty":    func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			newest := ckpts[len(ckpts)-1]
			orig, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(newest, orig, 0o644)
			if err := os.WriteFile(newest, damage(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir, Options{DisableFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := s2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshot(t, rec); got != "CKPT-1" {
				t.Fatalf("fell back to %q, want CKPT-1", got)
			}
			if rec.CorruptCheckpoints != 1 {
				t.Fatalf("CorruptCheckpoints = %d", rec.CorruptCheckpoints)
			}
			// Replay covers everything since checkpoint 1: events 4..8.
			if len(rec.Replay) != 5 || rec.Replay[0].Seq != 4 {
				t.Fatalf("replay = %d events from seq %d, want 5 from 4",
					len(rec.Replay), rec.Replay[0].Seq)
			}
			if rec.CkptMatches != 1 {
				t.Fatalf("CkptMatches = %d, want 1", rec.CkptMatches)
			}
		})
	}

	// Both checkpoints damaged: recovery degrades to whatever WAL suffix
	// retention kept (segments behind the oldest retained checkpoint were
	// legitimately pruned), reporting the damage instead of failing.
	t.Run("all-corrupt", func(t *testing.T) {
		var origs [][]byte
		for _, p := range ckpts {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			origs = append(origs, b)
			if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		defer func() {
			for i, p := range ckpts {
				os.WriteFile(p, origs[i], 0o644)
			}
		}()
		s2, err := Open(dir, Options{DisableFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Snapshot != nil || rec.CorruptCheckpoints != 2 {
			t.Fatalf("snapshot=%q corrupt=%d", snapshot(t, rec), rec.CorruptCheckpoints)
		}
		// Checkpoint 1 pruned the segment holding events 1..3.
		if len(rec.Replay) != 5 || rec.Replay[0].Seq != 4 {
			t.Fatalf("replay = %d events from seq %d, want 5 from 4",
				len(rec.Replay), rec.Replay[0].Seq)
		}
	})
}

// TestRetentionPrunes: only Retain checkpoints survive, and WAL segments
// older than the oldest retained checkpoint's resume point are removed.
func TestRetentionPrunes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		appendN(t, s, round*4, 4)
		if _, err := s.Checkpoint(func(io.Writer) error { return nil }, nil, uint64(round)); err != nil {
			t.Fatal(err)
		}
	}
	ckpts, segs, err := s.scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 2 {
		t.Fatalf("%d checkpoints retained, want 2", len(ckpts))
	}
	// Segments before the oldest retained checkpoint's WalSeg are gone.
	oldest, _, err := readCkptFile(s.ckptPath(ckpts[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if seg < oldest.WalSeg {
			t.Fatalf("segment %d predates oldest retained checkpoint (walSeg %d)", seg, oldest.WalSeg)
		}
	}
	// The fallback chain still recovers: corrupt the newest checkpoint.
	s.Kill()
	os.WriteFile(s.ckptPath(ckpts[1]), []byte("junk"), 0o644)
	s2, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CkptMatches != 3 {
		t.Fatalf("fallback recovered matches=%d, want checkpoint 4's count 3", rec.CkptMatches)
	}
	// Round 4's events (seq 17..20) follow the fallback checkpoint.
	if len(rec.Replay) != 4 || rec.Replay[0].Seq != 17 {
		t.Fatalf("fallback replay = %d events from seq %d, want 4 from 17",
			len(rec.Replay), rec.Replay[0].Seq)
	}
}

// TestResumeAppendsFreshSegment: reopening never appends to an existing
// segment (its tail may be torn); new records land in a new file and both
// generations replay in order.
func TestResumeAppendsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 3)
	s.Kill()

	s2, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s2, 3, 3)
	s2.Kill()

	segs, _ := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2 (one per generation)", len(segs))
	}
	s3, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Replay) != 6 {
		t.Fatalf("replay = %d events, want 6", len(rec.Replay))
	}
	for i, e := range rec.Replay {
		if e.Seq != uint64(i+1) {
			t.Fatalf("replay out of order at %d: seq %d", i, e.Seq)
		}
	}
}

// TestEventAttrsSurviveWAL: attribute values round-trip through the WAL's
// JSON encoding.
func TestEventAttrsSurviveWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	in := event.Event{Type: "T", TS: 5, Seq: 9, Attrs: event.Attrs{
		"id":   event.Int(42),
		"name": event.Str("x y"),
		"temp": event.Float(3.5),
	}.List()}
	if err := s.Append(in); err != nil {
		t.Fatal(err)
	}
	s.Kill()
	// The record's bytes are part of the on-disk format: a log written by
	// an earlier build must hold exactly this payload.
	const golden = `{"e":{"type":"T","ts":5,"seq":9,"attrs":{"id":{"int":42},"name":{"str":"x y"},"temp":{"float":3.5}}}}`
	found := false
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		found = found || bytes.Contains(data, []byte(golden))
	}
	if !found {
		t.Fatalf("no WAL segment holds the payload %s", golden)
	}
	s2, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Replay) != 1 {
		t.Fatal("event lost")
	}
	got := rec.Replay[0]
	if got.Type != in.Type || got.TS != in.TS || got.Seq != in.Seq || len(got.Attrs) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i, a := range in.Attrs {
		if got.Attrs[i].Name != a.Name || !got.Attrs[i].Value.Equal(a.Value) {
			t.Fatalf("attr %d: got %v want %v", i, got.Attrs[i], a)
		}
	}
}

// TestCleanCloseThenReopen: Close seals the segment; reopen recovers all.
func TestCleanCloseThenReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Replay) != 2 || rec.TornSegments != 0 {
		t.Fatalf("replay=%d torn=%d", len(rec.Replay), rec.TornSegments)
	}
}

func TestParseSegmentRejectsImplausibleLength(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 12; i++ {
		buf.WriteByte(0xFF)
	}
	buf.WriteString("trailing data so the bad frame is not the final record")
	if _, err := parseSegment(buf.Bytes()); err == nil {
		t.Fatal("implausible record length accepted")
	}
}

func TestOpenRejectsUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; permission bits are not enforced")
	}
	parent := t.TempDir()
	if err := os.Chmod(parent, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(parent, 0o755)
	if _, err := Open(filepath.Join(parent, "sub"), Options{}); err == nil {
		t.Fatal("unwritable dir accepted")
	}
}

func BenchmarkAppend(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{DisableFsync: true, SegmentEvents: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	e := mkEvent(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(e); err != nil {
			b.Fatal(err)
		}
	}
	fmt.Fprint(io.Discard, s.appended)
}

// TestSegmentNumberingSurvivesCrashAfterCheckpoint: a checkpoint rotates
// to a new segment whose number the checkpoint references as its replay
// horizon. A crash before any post-rotation append must not let the next
// generation reuse a number below that horizon — events appended after
// reopen would then replay as pre-checkpoint history and be skipped.
// (Regression: segment files were materialized lazily on first append, so
// the rotated-to number never reached the directory and reopen's scan
// restarted numbering below the checkpoint's WalSeg.)
func TestSegmentNumberingSurvivesCrashAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 5)
	if _, err := s.Checkpoint(saveTag("STATE"), nil, 0); err != nil {
		t.Fatal(err)
	}
	// Crash at the checkpoint boundary: nothing appended to the fresh
	// segment yet.
	s.Kill()

	s2, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := s2.Recover(); err != nil {
		t.Fatal(err)
	} else if len(rec.Replay) != 0 {
		t.Fatalf("replay has %d events, want 0", len(rec.Replay))
	}
	appendN(t, s2, 5, 3)
	s2.Kill()

	s3, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshot(t, rec); got != "STATE" {
		t.Fatalf("snapshot = %q", got)
	}
	if len(rec.Replay) != 3 {
		t.Fatalf("replay has %d events, want the 3 appended after the crash", len(rec.Replay))
	}
	if rec.Replay[0].Seq != 6 {
		t.Fatalf("replay starts at seq %d, want 6", rec.Replay[0].Seq)
	}
}

// TestPruneKeepsFallbackSegments: the store prunes by the resume segments
// it remembers, reading no file. A retained checkpoint corrupted on disk
// still pins what a fallback past it replays: with the two newest of three
// retained checkpoints damaged, recovery falls back to the oldest and
// replays every event logged after it, across segment rotations. A store
// reopened over the damaged files cannot read their resume segments, so
// once they are the oldest retained it prunes no segment.
func TestPruneKeepsFallbackSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableFsync: true, Retain: 3, SegmentEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	checkpoint := func(m uint64) {
		appendN(t, s, n, 5)
		n += 5
		if _, err := s.Checkpoint(saveTag(fmt.Sprint(m)), nil, m); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(0)
	checkpoint(1)
	checkpoint(2)
	pinned := s.walSeg[s.nextCkpt-1]
	if err := CorruptNewestCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	checkpoint(3)
	appendN(t, s, n, 3)
	n += 3
	s.Kill()
	if err := CorruptNewestCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshot(t, rec); got != "1" || rec.CorruptCheckpoints != 2 {
		t.Fatalf("recovered checkpoint %q past %d damaged ones, want 1 past 2", got, rec.CorruptCheckpoints)
	}
	if len(rec.Replay) != n-10 || rec.Replay[0].Seq != 11 {
		t.Fatalf("replayed %d events from seq %d, want the %d logged after checkpoint 1, from seq 11", len(rec.Replay), rec.Replay[0].Seq, n-10)
	}

	// Checkpoint 1 ages out; the damaged 2 and 3 are now the oldest retained.
	appendN(t, s2, n, 3)
	if _, err := s2.Checkpoint(saveTag("4"), nil, 4); err != nil {
		t.Fatal(err)
	}
	_, segs, err := s2.scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0] > pinned {
		t.Errorf("segments %v left after pruning behind damaged checkpoints, want every one from %d on", segs, pinned)
	}
}

// FuzzRecover feeds Recover an arbitrary checkpoint file and log segment:
// an error or recovered state, never a panic. It is seeded with the
// supervised directories under testdata and one a store writes here. The
// segment is named after the resume segment the checkpoint's header names,
// when it has one.
func FuzzRecover(f *testing.F) {
	dirs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*", "dir"))
	if err != nil {
		f.Fatal(err)
	}
	written := f.TempDir()
	st, err := Open(written, Options{DisableFsync: true})
	if err != nil {
		f.Fatal(err)
	}
	for i := range 30 {
		if err := st.Append(mkEvent(i)); err != nil {
			f.Fatal(err)
		}
		if i%10 == 9 {
			if _, err := st.Checkpoint(saveTag(fmt.Sprint(i)), map[string]int{"seen": i}, uint64(i)); err != nil {
				f.Fatal(err)
			}
		}
	}
	st.Close()
	for _, dir := range append(dirs, written) {
		ckpts, _ := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"+ckptSuffix))
		segs, _ := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
		for _, c := range ckpts {
			for _, w := range segs {
				ck, err := os.ReadFile(c)
				if err != nil {
					f.Fatal(err)
				}
				seg, err := os.ReadFile(w)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(ck, seg)
			}
		}
	}
	f.Fuzz(func(t *testing.T, ck, seg []byte) {
		dir := t.TempDir()
		s := &Store{dir: dir}
		if err := os.WriteFile(s.ckptPath(0), ck, 0o644); err != nil {
			t.Fatal(err)
		}
		segSeq := uint64(1)
		if h, _, err := readCkptFile(s.ckptPath(0)); err == nil {
			segSeq = h.WalSeg
		}
		if err := os.WriteFile(s.segPath(segSeq), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{DisableFsync: true})
		if err != nil {
			return
		}
		defer st.Close()
		rec, err := st.Recover()
		if err != nil || rec.Snapshot == nil {
			return
		}
		for rec.Snapshot.More() {
			var raw json.RawMessage
			if rec.Snapshot.Next("any", "", &raw) != nil {
				break
			}
		}
	})
}
