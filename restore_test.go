package oostream

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"oostream/internal/gen"
	"oostream/internal/recovery"
	"oostream/internal/trace"
)

// everythingOn is a Config with every instrument set, a fresh Observer per
// call (a restart is a new process: a new registry), and a trace hook that
// counts the emits it sees.
func everythingOn() (Config, *Observer, *int) {
	reg := NewObserver()
	emits := new(int)
	var mu sync.Mutex
	cfg := Config{
		K:          10,
		Observer:   reg,
		Provenance: true,
		Latency:    Latency{SampleEvery: 1},
		Trace: TraceFunc(func(ev TraceEvent) {
			if ev.Op == OpEmit {
				mu.Lock()
				*emits++
				mu.Unlock()
			}
		}),
	}
	return cfg, reg, emits
}

// pairStream yields n alternating A/B events over four ids with distinct,
// increasing Seq and TS starting after from.
func pairStream(from Seq, n int) []Event {
	events := make([]Event, n)
	for i := range events {
		seq := from + Seq(i) + 1
		typ := "A"
		if seq%2 == 0 {
			typ = "B"
		}
		events[i] = pairEvent(typ, Time(seq), seq, int64((seq-1)/2%4))
	}
	return events
}

// checkInstrumented asserts what "instruments reached every layer" means
// for the n events fed since the engine was (re)built: the series named in
// ingest counted them, the hook saw every delivered match, every match has
// lineage, and the span ledger balances with spans actually opened.
func checkInstrumented(t *testing.T, reg *Observer, ingest []string, n int, emits int, got []Match, lr *LatencyReport) {
	t.Helper()
	var in uint64
	for _, name := range ingest {
		in += reg.Series(name).EventsIn.Load()
	}
	if in != uint64(n) {
		t.Errorf("EventsIn over %v = %d, want %d", ingest, in, n)
	}
	if len(got) == 0 {
		t.Fatal("stream produced no matches")
	}
	if emits != len(got) {
		t.Errorf("trace hook saw %d emits, %d matches delivered", emits, len(got))
	}
	for _, m := range got {
		if m.Prov == nil {
			t.Fatalf("match %s carries no lineage", m.Key())
		}
	}
	if lr == nil || lr.SpansSampled != uint64(n) {
		t.Fatalf("latency report sampled %+v spans, want %d", lr, n)
	}
	if lr.Wall.Count+lr.SpansAbandoned != lr.SpansSampled {
		t.Errorf("span ledger: %d closed + %d abandoned != %d opened", lr.Wall.Count, lr.SpansAbandoned, lr.SpansSampled)
	}
}

// TestInstrumentsSurviveSupervisedRestart is the restart finding: a
// supervised engine restored from its own snapshot must be instrumented like
// a fresh one. Before instruments were handed over at construction, a series
// bound in a factory the restore path never ran counted nothing after a
// restart, and a supervised engine never opened a latency span.
func TestInstrumentsSurviveSupervisedRestart(t *testing.T) {
	q := pairQuery(t)
	dir := t.TempDir()
	sc := SupervisorConfig{Dir: dir, CheckpointEvery: 2, DisableFsync: true}
	open := func(cfg Config) *Engine {
		t.Helper()
		s, err := NewSupervisedEngine(q, cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if ms, err := s.Start(); err != nil || len(ms) != 0 {
			t.Fatalf("Start: %d matches, err %v", len(ms), err)
		}
		return s
	}
	feed := func(s *Engine, events []Event) []Match {
		t.Helper()
		var out []Match
		for _, ev := range events {
			out = append(out, s.Process(ev)...)
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	cfg, _, _ := everythingOn()
	first := open(cfg)
	feed(first, pairStream(0, 8)) // the checkpoint at event 8 leaves no WAL suffix
	first.Kill()

	const n = 12
	cfg, reg, emits := everythingOn()
	second := open(cfg)
	got := feed(second, pairStream(8, n))
	// The engine beneath the supervisor shares its series.
	checkInstrumented(t, reg, []string{"supervised(native)"}, n, *emits, got, second.LatencyReport())
	if reg.Series("supervised(native)").Checkpoints.Load() == 0 {
		t.Error("supervisor's own series did not move after the restart")
	}

	// The same continuation with nothing on yields the same matches.
	plain := MustNewEngine(q, Config{K: 10})
	var want []Match
	for _, ev := range append(pairStream(0, 8), pairStream(8, n)...) {
		want = append(want, plain.Process(ev)...)
	}
	if ok, diff := SameResults(want[len(want)-len(got):], got); !ok {
		t.Errorf("instrumented restart diverges from the plain run:\n%s", diff)
	}
}

// TestRestoreEngineTakesConfig: RestoreEngine(q, cfg, r) instruments the
// restored engine from cfg, for every strategy, and refuses a checkpoint
// another strategy wrote.
func TestRestoreEngineTakesConfig(t *testing.T) {
	q := pairQuery(t)
	for _, strat := range []Strategy{StrategyNative, StrategyKSlack, StrategySpeculate, StrategyHybrid} {
		cfg, _, _ := everythingOn()
		cfg.Strategy = strat
		en := MustNewEngine(q, cfg)
		for _, ev := range pairStream(0, 8) {
			en.Process(ev)
		}
		var buf bytes.Buffer
		if err := en.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}

		const n = 12
		cfg, reg, emits := everythingOn()
		cfg.Strategy = strat
		restored, err := RestoreEngine(q, cfg, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got []Match
		for _, ev := range pairStream(8, n) {
			got = append(got, restored.Process(ev)...)
		}
		// The flush releases what the levee still holds, closing its spans.
		got = append(got, restored.Flush()...)
		checkInstrumented(t, reg, []string{string(strat)}, n, *emits, got, restored.LatencyReport())
	}

	for _, pair := range [][2]Strategy{{StrategySpeculate, StrategyNative}, {StrategyNative, StrategySpeculate}, {StrategyHybrid, StrategyNative}, {StrategyNative, StrategyHybrid}} {
		en := MustNewEngine(q, Config{Strategy: pair[0], K: 10})
		en.ProcessAll(pairStream(0, 8))
		var buf bytes.Buffer
		if err := en.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreEngine(q, Config{Strategy: pair[1], K: 10}, &buf); err == nil {
			t.Errorf("RestoreEngine under %s accepted a checkpoint %s wrote", pair[1], pair[0])
		}
	}
}

// TestSupervisedKSlackCheckpoints: a supervised engine of every strategy —
// the levee first — snapshots every CheckpointEvery events, keeps Retain
// snapshots, and a process killed and reopened resumes from the newest one
// to the uninterrupted run's output.
func TestSupervisedKSlackCheckpoints(t *testing.T) {
	for _, s := range []Strategy{StrategyKSlack, StrategyNative, StrategySpeculate, StrategyHybrid} {
		checkSupervisedCheckpoints(t, Config{Strategy: s, K: 10})
	}
}

func checkSupervisedCheckpoints(t *testing.T, cfg Config) {
	t.Helper()
	q := pairQuery(t)
	sc := SupervisorConfig{Dir: t.TempDir(), CheckpointEvery: 5, Retain: 2, DisableFsync: true}
	var got []Match
	for _, span := range [][]Event{pairStream(0, 40), pairStream(40, 20)} {
		en, err := NewSupervisedEngine(q, cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := en.Start()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ms...)
		for _, ev := range span {
			got = append(got, en.Process(ev)...)
		}
		if span[0].Seq == 1 {
			if n := en.Metrics().Checkpoints; n != 8 {
				t.Errorf("%s: %d checkpoints over 40 events, want 8", cfg.Strategy, n)
			}
			if n := recovery.CountValidCheckpoints(sc.Dir); n != 2 {
				t.Errorf("%s: %d checkpoints on disk, want Retain = 2", cfg.Strategy, n)
			}
			en.Kill()
			continue
		}
		got = append(got, en.Flush()...)
		if err := en.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want := MustNewEngine(q, cfg).ProcessAll(append(pairStream(0, 40), pairStream(40, 20)...))
	if ok, diff := SameResults(want, got); !ok {
		t.Errorf("%s: resumed run differs from the uninterrupted one:\n%s", cfg.Strategy, diff)
	}
}

// TestAttrlessEventRoundTrips: an event without attributes is the same
// value, reflect.DeepEqual, after every path that copies or stores it: a
// trace line, a WAL record and a checkpoint. NewEvent and Clone used to give
// it an empty map where the decoders gave nil, so such an event differed
// from its own copy after a restart.
func TestAttrlessEventRoundTrips(t *testing.T) {
	a := NewEvent("A", 1, nil)
	a.Seq = 1
	if a.Attrs != nil {
		t.Fatalf("NewEvent(nil attrs).Attrs = %#v, want nil", a.Attrs)
	}
	if c := a.Clone(); !reflect.DeepEqual(c, a) {
		t.Errorf("Clone: %#v, want %#v", c, a)
	}

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.Write(a); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if back, err := trace.NewReader(&buf).Read(); err != nil || !reflect.DeepEqual(back, a) {
		t.Errorf("trace line: %#v, %v; want %#v", back, err, a)
	}

	dir := t.TempDir()
	store, err := recovery.Open(dir, recovery.Options{DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(a); err != nil {
		t.Fatal(err)
	}
	store.Kill()
	if store, err = recovery.Open(dir, recovery.Options{DisableFsync: true}); err != nil {
		t.Fatal(err)
	}
	rec, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Replay) != 1 || !reflect.DeepEqual(rec.Replay[0], a) {
		t.Errorf("WAL record: %#v, want %#v", rec.Replay, a)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint holds a on its stack; the match that b completes after
	// the restore hands it back.
	q := MustCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	en := MustNewEngine(q, Config{K: 10})
	en.Process(a)
	var ckpt bytes.Buffer
	if err := en.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(q, Config{K: 10}, &ckpt)
	if err != nil {
		t.Fatal(err)
	}
	b := NewEvent("B", 2, nil)
	b.Seq = 2
	got := append(restored.Process(b), restored.Flush()...)
	if len(got) != 1 || !reflect.DeepEqual(got[0].Events, []Event{a, b}) {
		t.Errorf("checkpoint: matches %v, want one of %#v", got, []Event{a, b})
	}
}

// TestEveryStrategyRestoresMidStream: every strategy, with and without an
// aggregate, checkpoints at any cut and restores through RestoreEngine to an
// engine whose continuation is the uninterrupted run's, element for element:
// emissions, retractions and revisions in the same order with the same
// stamps. The negation makes the speculative strategies retract across the
// cut.
func TestEveryStrategyRestoresMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sorted []Event
	for i := 0; i < 120; i++ {
		e := pairEvent([]string{"A", "B", "C"}[rng.Intn(3)], Time(3*i), Seq(i+1), int64(rng.Intn(3)))
		sorted = append(sorted, e)
	}
	arrival := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 20, Seed: 6})
	for _, src := range []string{
		"PATTERN SEQ(A a, !(C c), B b) WHERE a.id = b.id AND a.id = c.id WITHIN 30",
		"AGGREGATE COUNT(*) OVER SEQ(A a, !(C c), B b) WHERE a.id = b.id AND a.id = c.id WITHIN 30 SLIDE 10 GROUP BY a.id",
	} {
		q := MustCompile(src, nil)
		for _, s := range Strategies() {
			cfg := Config{Strategy: s, K: 20}
			want := MustNewEngine(q, cfg).ProcessAll(arrival)
			if s == StrategySpeculate && !slices.ContainsFunc(want, func(m Match) bool { return m.Kind == Retract }) {
				t.Fatalf("%q: the speculative run retracts nothing", src)
			}
			for cut := 0; cut <= len(arrival); cut += 7 {
				en := MustNewEngine(q, cfg)
				var got []Match
				for _, e := range arrival[:cut] {
					got = append(got, en.Process(e)...)
				}
				var buf bytes.Buffer
				if err := en.Checkpoint(&buf); err != nil {
					t.Fatalf("%s %q cut %d: %v", s, src, cut, err)
				}
				restored, err := RestoreEngine(q, cfg, &buf)
				if err != nil {
					t.Fatalf("%s %q cut %d: %v", s, src, cut, err)
				}
				got = append(got, restored.ProcessAll(arrival[cut:])...)
				if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
					t.Fatalf("%s %q cut %d: the restored run differs\n got  %s\n want %s", s, src, cut, g, w)
				}
			}
		}
	}
}
