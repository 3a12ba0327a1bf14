package runtime

import (
	"io"
	"strings"
	"testing"
	"time"

	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/recovery"
)

const supervQuery = "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 50"

func supervStream(t *testing.T, n int, seed int64) []event.Event {
	t.Helper()
	sorted := gen.Uniform(n, []string{"A", "B", "C"}, 3, 5, seed)
	return gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 40, Seed: seed + 1})
}

// noSleep removes restart backoff from tests.
func noSleep(time.Duration) {}

// supervOpts hands the supervisor and every engine it builds one series,
// as the facade's builder does, so Metrics reads both.
func supervOpts(t *testing.T, p *plan.Plan, k event.Time) SupervisorOptions {
	t.Helper()
	env := engine.Env{Series: obsv.NewSeries("")}
	return SupervisorOptions{
		Env: env,
		New: func() (engine.Engine, error) {
			return core.New(p, core.Options{K: k, Env: env})
		},
		Restore: func(r io.Reader, _ uint64) (engine.Engine, error) {
			return core.Restore(p, env, r)
		},
		K:     k,
		Sleep: noSleep,
	}
}

func openSuperv(t *testing.T, dir string, opts SupervisorOptions) *Supervisor {
	t.Helper()
	st, err := recovery.Open(dir, recovery.Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSupervisor(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// offer offers every event, accumulating emissions; any failure is fatal.
func offer(t *testing.T, s *Supervisor, events []event.Event) []plan.Match {
	t.Helper()
	var out []plan.Match
	for _, e := range events {
		out = append(out, s.Process(e)...)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// driveAll offers every event and flushes, accumulating emissions.
func driveAll(t *testing.T, s *Supervisor, events []event.Event) []plan.Match {
	t.Helper()
	out := append(offer(t, s, events), s.Flush()...)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// baseline runs the raw engine without supervision.
func baseline(t *testing.T, p *plan.Plan, k event.Time, events []event.Event) []plan.Match {
	t.Helper()
	return engine.Drain(core.MustNew(p, core.Options{K: k}), events)
}

// TestSupervisedMatchesUnsupervised: with no faults, supervision is
// transparent — same matches as a bare engine run.
func TestSupervisedMatchesUnsupervised(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 300, 11)
	want := baseline(t, p, 40, events)

	opts := supervOpts(t, p, 40)
	opts.CheckpointEvery = 16
	s := openSuperv(t, t.TempDir(), opts)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	got := driveAll(t, s, events)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("supervised output differs:\n%s", diff)
	}
	snap := s.Metrics()
	if snap.Checkpoints == 0 {
		t.Error("no checkpoints taken")
	}
	if snap.CheckpointBytes == 0 || snap.Restarts != 0 {
		t.Errorf("bytes=%d restarts=%d", snap.CheckpointBytes, snap.Restarts)
	}
}

// TestCrashRecoveryExactMatchSet is the tentpole acceptance check at unit
// level: kill at every tested offset, reopen, and the combined emissions
// (pre-crash + recovered run) equal an uninterrupted run's, in order,
// with zero duplicates.
func TestCrashRecoveryExactMatchSet(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 200, 21)

	opts := supervOpts(t, p, 40)
	opts.CheckpointEvery = 8
	dirOpts := opts
	wantS := openSuperv(t, t.TempDir(), dirOpts)
	if _, err := wantS.Start(); err != nil {
		t.Fatal(err)
	}
	want := driveAll(t, wantS, events)
	wantS.Close()

	for _, crashAt := range []int{0, 1, 7, 8, 9, 63, 100, 199} {
		dir := t.TempDir()
		s := openSuperv(t, dir, opts)
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		got := offer(t, s, events[:crashAt])
		s.Kill()
		if ms := s.Process(events[crashAt]); ms != nil || s.Err() == nil {
			t.Fatalf("Process after Kill: %v, err %v", ms, s.Err())
		}

		s2 := openSuperv(t, dir, opts)
		recovered, err := s2.Start()
		if err != nil {
			t.Fatalf("crash at %d: recovery: %v", crashAt, err)
		}
		got = append(got, recovered...)
		got = append(got, driveAll(t, s2, events[crashAt:])...)
		s2.Close()

		if len(got) != len(want) {
			t.Fatalf("crash at %d: %d matches, want %d", crashAt, len(got), len(want))
		}
		for i := range want {
			if want[i].Key() != got[i].Key() {
				t.Fatalf("crash at %d: match %d is %s, want %s (order or identity diverged)",
					crashAt, i, got[i].Key(), want[i].Key())
			}
		}
	}
}

// TestCrashDuringFlushRecovers: killing after Flush's marker is durable
// but before its matches are delivered replays to the same final set.
func TestCrashDuringFlushRecovers(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 120, 31)
	want := baseline(t, p, 40, events)

	dir := t.TempDir()
	opts := supervOpts(t, p, 40)
	opts.CheckpointEvery = 16
	opts.FaultHook = func(event.Event) {}
	s := openSuperv(t, dir, opts)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	got := offer(t, s, events)
	// Simulate dying inside Flush: log the marker, then kill before the
	// engine flushes.
	if err := s.store.AppendFlush(); err != nil {
		t.Fatal(err)
	}
	s.Kill()

	s2 := openSuperv(t, dir, supervOpts(t, p, 40))
	recovered, err := s2.Start()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, recovered...)
	if ms := s2.Process(events[0]); ms != nil || s2.Err() == nil || !strings.Contains(s2.Err().Error(), "flushed") {
		t.Fatalf("recovered supervisor accepted events after durable flush: %v, err %v", ms, s2.Err())
	}
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("flush-crash output differs:\n%s", diff)
	}
}

// TestPanicRestartIsTransparent: a one-shot panic mid-stream restarts the
// engine from the last checkpoint and the total output is unchanged.
func TestPanicRestartIsTransparent(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 200, 41)
	want := baseline(t, p, 40, events)

	for _, panicAt := range []int{0, 5, 99, 199} {
		opts := supervOpts(t, p, 40)
		opts.CheckpointEvery = 16
		fired := false
		opts.FaultHook = func(e event.Event) {
			if !fired && e.Seq == events[panicAt].Seq {
				fired = true
				panic("injected fault")
			}
		}
		s := openSuperv(t, t.TempDir(), opts)
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		got := driveAll(t, s, events)
		s.Close()
		if ok, diff := plan.SameResults(want, got); !ok {
			t.Fatalf("panic at %d: output differs:\n%s", panicAt, diff)
		}
		if snap := s.Metrics(); snap.Restarts != 1 {
			t.Fatalf("panic at %d: %d restarts, want 1", panicAt, snap.Restarts)
		}
	}
}

// TestPoisonEventExhaustsRestarts: a deterministic panic replays into the
// same panic until MaxRestarts, then the supervisor fails sticky.
func TestPoisonEventExhaustsRestarts(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 50, 51)

	opts := supervOpts(t, p, 40)
	opts.MaxRestarts = 2
	poison := events[20].Seq
	opts.FaultHook = func(e event.Event) {
		if e.Seq == poison {
			panic("poison")
		}
	}
	var slept []time.Duration
	opts.Backoff = 10 * time.Millisecond
	opts.BackoffMax = 15 * time.Millisecond
	opts.Sleep = func(d time.Duration) { slept = append(slept, d) }

	s := openSuperv(t, t.TempDir(), opts)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if s.Process(e); s.Err() != nil {
			break
		}
	}
	gotErr := s.Err()
	if gotErr == nil || !strings.Contains(gotErr.Error(), "giving up") {
		t.Fatalf("poison event did not exhaust restarts: %v", gotErr)
	}
	if ms := s.Process(events[0]); ms != nil || s.Err() != gotErr {
		t.Fatalf("sticky-failed supervisor took an event: %v, err %v", ms, s.Err())
	}
	// Backoff doubled then capped: 10ms, 15ms.
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 15*time.Millisecond {
		t.Fatalf("backoff schedule = %v", slept)
	}
	if snap := s.Metrics(); snap.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", snap.Restarts)
	}
}

// TestAdmissionPolicies: duplicates and bound violators are handled per
// policy, with the right counters; the engine never sees a duplicate.
func TestAdmissionPolicies(t *testing.T) {
	p := compile(t, supervQuery)
	mk := func(typ string, ts event.Time, seq uint64) event.Event {
		return event.Event{Type: typ, TS: ts, Seq: seq,
			Attrs: event.Attrs{"id": event.Int(1)}.List()}
	}
	stream := []event.Event{
		mk("A", 100, 1),
		mk("A", 100, 1), // duplicate
		mk("C", 200, 2), // advances the clock
		mk("B", 120, 3), // violates the bound (120 < 200-50)
		mk("B", 180, 4), // in-bound, but outside A@100's window (180-100 > WITHIN 50): no match
		mk("A", 190, 5), // fresh A
		mk("B", 210, 6), // matches A@190
	}

	t.Run("drop", func(t *testing.T) {
		opts := supervOpts(t, p, 50)
		opts.Policy = AdmitDrop
		s := openSuperv(t, t.TempDir(), opts)
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		got := driveAll(t, s, stream)
		snap := s.Metrics()
		if snap.DuplicatesSuppressed != 1 || snap.EventsDropped != 1 {
			t.Fatalf("dup=%d dropped=%d, want 1 and 1", snap.DuplicatesSuppressed, snap.EventsDropped)
		}
		if len(got) != 1 {
			t.Fatalf("%d matches, want 1", len(got))
		}
	})

	t.Run("deadletter", func(t *testing.T) {
		dl := make(chan event.Event, 8)
		opts := supervOpts(t, p, 50)
		opts.Policy = AdmitDeadLetter
		opts.DeadLetter = dl
		s := openSuperv(t, t.TempDir(), opts)
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		driveAll(t, s, stream)
		snap := s.Metrics()
		if snap.EventsDeadLettered != 2 {
			t.Fatalf("deadlettered=%d, want 2 (one dup, one violator)", snap.EventsDeadLettered)
		}
		close(dl)
		var seqs []uint64
		for e := range dl {
			seqs = append(seqs, e.Seq)
		}
		if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
			t.Fatalf("dead-letter channel got %v, want [1 3]", seqs)
		}
	})

	t.Run("engine-bound", func(t *testing.T) {
		opts := supervOpts(t, p, 50)
		opts.EngineBound = true
		s := openSuperv(t, t.TempDir(), opts)
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		driveAll(t, s, stream)
		snap := s.Metrics()
		// The engine decides what is late: the violator reached it, and
		// only the duplicate was suppressed.
		if snap.DuplicatesSuppressed != 1 || snap.EventsDropped != 0 {
			t.Fatalf("dup=%d dropped=%d, want 1 and 0", snap.DuplicatesSuppressed, snap.EventsDropped)
		}
		// 6 events reached the engine (all but the duplicate): 5 relevant
		// plus the C, which the engine counts as irrelevant. (The engine
		// itself doesn't flag the violator late: the irrelevant C never
		// advanced its internal clock, only the admission clock.)
		if snap.EventsIn != 5 || snap.Irrelevant != 1 {
			t.Fatalf("in=%d irrelevant=%d, want 5 and 1",
				snap.EventsIn, snap.Irrelevant)
		}
	})
}

// TestAdmissionSurvivesCrash: the duplicate horizon and clock are part of
// checkpoint metadata, so a duplicate of a pre-crash event is still
// rejected after recovery.
func TestAdmissionSurvivesCrash(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 60, 61)

	dir := t.TempDir()
	opts := supervOpts(t, p, 40)
	opts.CheckpointEvery = 8
	s := openSuperv(t, dir, opts)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	offer(t, s, events[:40])
	s.Kill()

	s2 := openSuperv(t, dir, opts)
	if _, err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	// Re-offer a recent pre-crash event: must be suppressed as duplicate.
	recent := events[39]
	before := s2.Metrics().DuplicatesSuppressed
	offer(t, s2, []event.Event{recent})
	if after := s2.Metrics().DuplicatesSuppressed; after != before+1 {
		t.Fatalf("pre-crash duplicate not suppressed after recovery (%d -> %d)", before, after)
	}
}

// TestWALOnlySupervision: a strategy with no snapshot support (Restore
// nil) still crash-recovers by full WAL replay.
func TestWALOnlySupervision(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 150, 71)
	want := baseline(t, p, 40, events)

	dir := t.TempDir()
	opts := supervOpts(t, p, 40)
	opts.Restore = nil
	opts.CheckpointEvery = 8 // ignored without Restore
	s := openSuperv(t, dir, opts)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	got := offer(t, s, events[:90])
	if s.Metrics().Checkpoints != 0 {
		t.Fatal("WAL-only supervisor wrote checkpoints")
	}
	s.Kill()

	s2 := openSuperv(t, dir, opts)
	recovered, err := s2.Start()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, recovered...)
	got = append(got, driveAll(t, s2, events[90:])...)
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("WAL-only recovery differs:\n%s", diff)
	}
}

// TestCorruptCheckpointFallbackEndToEnd: flipping a byte in the newest
// checkpoint after a crash falls back to the previous one and still
// reproduces the exact match stream.
func TestCorruptCheckpointFallbackEndToEnd(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 160, 81)

	wantS := openSuperv(t, t.TempDir(), supervOpts(t, p, 40))
	if _, err := wantS.Start(); err != nil {
		t.Fatal(err)
	}
	want := driveAll(t, wantS, events)
	wantS.Close()

	dir := t.TempDir()
	opts := supervOpts(t, p, 40)
	opts.CheckpointEvery = 16
	s := openSuperv(t, dir, opts)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	got := offer(t, s, events[:100])
	s.Kill()
	if err := recovery.CorruptNewestCheckpoint(dir); err != nil {
		t.Fatal(err)
	}

	s2 := openSuperv(t, dir, opts)
	recovered, err := s2.Start()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, recovered...)
	got = append(got, driveAll(t, s2, events[100:])...)

	if len(got) != len(want) {
		t.Fatalf("%d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() {
			t.Fatalf("match %d is %s, want %s", i, got[i].Key(), want[i].Key())
		}
	}
}
