package runtime

import (
	"fmt"
	"maps"
	"os"
	"strings"
	"testing"

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
		Restore: func(s *engine.Sections) (engine.Engine, error) {
			return core.Restore(p, env, s)
		},
	}
}

// panicky is an engine whose Process panics on the event numbered at while
// shots are left, spending one each time.
type panicky struct {
	engine.Engine
	at    event.Seq
	shots *int
}

func (p panicky) Process(e event.Event) []plan.Match {
	if e.Seq == p.at && *p.shots > 0 {
		*p.shots--
		panic("injected fault")
	}
	return p.Engine.Process(e)
}

// panicOpts is supervOpts whose factories wrap every engine they build,
// fresh or restored, in a panicky.
func panicOpts(t *testing.T, p *plan.Plan, k event.Time, at event.Seq, shots *int) SupervisorOptions {
	opts := supervOpts(t, p, k)
	fresh, restore := opts.New, opts.Restore
	wrap := func(en engine.Engine, err error) (engine.Engine, error) {
		if err != nil {
			return nil, err
		}
		return panicky{en, at, shots}, nil
	}
	opts.New = func() (engine.Engine, error) { return wrap(fresh()) }
	opts.Restore = func(s *engine.Sections) (engine.Engine, error) { return wrap(restore(s)) }
	return opts
}

// files lists dir's files with their sizes.
func files(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.Size()
	}
	return out
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
	if snap.CheckpointBytes == 0 {
		t.Error("checkpoint bytes not gauged")
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

// TestPanicIsACrash: a one-shot engine panic fails the supervisor sticky,
// naming the event and the panic, and writes nothing more to the
// directory; reopening it recovers as from any crash, and the total output
// equals an uninterrupted run's.
func TestPanicIsACrash(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 200, 41)
	want := baseline(t, p, 40, events)

	for _, panicAt := range []int{0, 5, 99, 199} {
		shots := 1
		opts := panicOpts(t, p, 40, events[panicAt].Seq, &shots)
		opts.CheckpointEvery = 16
		dir := t.TempDir()
		s := openSuperv(t, dir, opts)
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		got := offer(t, s, events[:panicAt])
		if ms := s.Process(events[panicAt]); ms != nil {
			t.Fatalf("panic at %d: the panicking call returned %d matches", panicAt, len(ms))
		}
		err := s.Err()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("event Seq %d: injected fault", events[panicAt].Seq)) {
			t.Fatalf("panic at %d: Err = %v", panicAt, err)
		}
		before := files(t, dir)
		if ms := append(s.Process(events[0]), s.Flush()...); ms != nil || s.Err() != err {
			t.Fatalf("panic at %d: the crashed supervisor took a call: %v, err %v", panicAt, ms, s.Err())
		}
		s.Close()
		if after := files(t, dir); !maps.Equal(before, after) {
			t.Fatalf("panic at %d: the crashed supervisor wrote to its directory: %v, then %v", panicAt, before, after)
		}

		s2 := openSuperv(t, dir, opts)
		recovered, err := s2.Start()
		if err != nil {
			t.Fatalf("panic at %d: reopening: %v", panicAt, err)
		}
		got = append(got, recovered...)
		got = append(got, driveAll(t, s2, events[panicAt+1:])...)
		s2.Close()
		if ok, diff := plan.SameResults(want, got); !ok {
			t.Fatalf("panic at %d: output differs:\n%s", panicAt, diff)
		}
	}
}

// TestPoisonEventFailsReopen: an event that panics on every run fails the
// call that offered it and then the Start that replays it, and the failed
// Start leaves the directory as it found it.
func TestPoisonEventFailsReopen(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 50, 51)
	poison := events[20].Seq
	shots := len(events)
	opts := panicOpts(t, p, 40, poison, &shots)
	opts.CheckpointEvery = 8

	dir := t.TempDir()
	s := openSuperv(t, dir, opts)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	offer(t, s, events[:20])
	s.Process(events[20])
	if s.Err() == nil {
		t.Fatal("the poison event did not fail the supervisor")
	}
	s.Close()

	before := files(t, dir)
	s2 := openSuperv(t, dir, opts)
	_, err := s2.Start()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("event Seq %d: injected fault", poison)) {
		t.Fatalf("reopened Start over a poison event: %v", err)
	}
	if ms := s2.Process(events[21]); ms != nil || s2.Err() != err {
		t.Fatalf("the failed supervisor took an event: %v, err %v", ms, s2.Err())
	}
	s2.Close()
	if after := files(t, dir); !maps.Equal(before, after) {
		t.Fatalf("the failed Start wrote to its directory: %v, then %v", before, after)
	}
}

// TestAdmissionPolicies: admission has one policy left, a Seq is processed
// once, and lateness is the engine's to judge, by its own clock. The engine
// never sees the duplicate and sees the rest as it would in memory: B@120,
// which a clock moved by an ignored event type would reject, matches.
func TestAdmissionPolicies(t *testing.T) {
	p := compile(t, supervQuery)
	mk := func(typ string, ts event.Time, seq uint64) event.Event {
		return event.Event{Type: typ, TS: ts, Seq: seq,
			Attrs: event.Attrs{"id": event.Int(1)}.List()}
	}
	stream := []event.Event{
		mk("A", 100, 1),
		mk("A", 100, 1), // duplicate
		mk("C", 200, 2), // an event type the query ignores: no clock moves
		mk("B", 120, 3), // within K of the engine's clock (100): matches A@100
		mk("B", 180, 4), // outside A@100's window (180-100 > WITHIN 50): no match
		mk("A", 190, 5), // fresh A
		mk("B", 210, 6), // matches A@190
		mk("A", 30, 7),  // below the engine's safe clock (210-50): late
	}

	t.Run("engine-bound", func(t *testing.T) {
		s := openSuperv(t, t.TempDir(), supervOpts(t, p, 50))
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		got := driveAll(t, s, stream)
		want := baseline(t, p, 50, append(stream[:1:1], stream[2:]...))
		if ok, diff := plan.SameResults(want, got); !ok || len(got) != 2 {
			t.Fatalf("%d matches, want the in-memory engine's 2:\n%s", len(got), diff)
		}
		snap := s.Metrics()
		if snap.DuplicatesSuppressed != 1 || snap.EventsLate != 1 {
			t.Fatalf("dup=%d late=%d, want 1 and 1", snap.DuplicatesSuppressed, snap.EventsLate)
		}
		// 7 events reached the engine (all but the duplicate): 6 relevant
		// plus the C, which the engine counts as irrelevant.
		if snap.EventsIn != 6 || snap.Irrelevant != 1 {
			t.Fatalf("in=%d irrelevant=%d, want 6 and 1", snap.EventsIn, snap.Irrelevant)
		}
	})
}

// TestAdmissionSurvivesCrash: the duplicate horizon is part of checkpoint
// metadata, so a duplicate of a pre-crash event is still rejected after
// recovery.
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

// TestWALOnlySupervision: without periodic checkpoints (CheckpointEvery 0)
// a supervisor crash-recovers by replaying the full log; and it is not
// built without a way to read a checkpoint back.
func TestWALOnlySupervision(t *testing.T) {
	p := compile(t, supervQuery)
	events := supervStream(t, 150, 71)
	want := baseline(t, p, 40, events)

	dir := t.TempDir()
	opts := supervOpts(t, p, 40)
	noRestore := opts
	noRestore.Restore = nil
	st, err := recovery.Open(t.TempDir(), recovery.Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSupervisor(st, noRestore); err == nil {
		t.Error("NewSupervisor accepted options without a Restore factory")
	}
	st.Close()
	s := openSuperv(t, dir, opts)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	got := offer(t, s, events[:90])
	if s.Metrics().Checkpoints != 0 {
		t.Fatal("supervisor without CheckpointEvery wrote checkpoints")
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
