package oostream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oostream/internal/gen"
	"oostream/internal/trace"
)

// lateQueries are the plain and the aggregate form of one pattern: every
// lateness test below runs each under every strategy.
func lateQueries(t *testing.T, within string) []*Query {
	t.Helper()
	return []*Query{
		MustCompile("PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN "+within, nil),
		MustCompile("AGGREGATE COUNT(*) OVER SEQ(A a, B b) WHERE a.id = b.id WITHIN "+within+" SLIDE 10", nil),
	}
}

// supervised builds and starts a durable engine in a fresh directory.
func supervised(t *testing.T, q *Query, cfg Config) *Engine {
	t.Helper()
	en, err := NewSupervisedEngine(q, cfg, SupervisorConfig{Dir: t.TempDir(), CheckpointEvery: 64, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { en.Close() })
	return en
}

// seqd numbers events 1..n in the order given.
func seqd(events ...Event) []Event {
	for i := range events {
		events[i].Seq = Seq(i + 1)
	}
	return events
}

// TestSupervisedLatenessIsTheEngines: a durable engine judges lateness as
// the same engine in memory does, by the engine's own clock and bound, so
// its output is the in-memory output element for element and it counts the
// same events in, late and shed. The supervisor used to keep a second clock
// of its own, which started at 0 and moved on event types outside the
// query: it dropped B@120 in the first stream (the engine's clock is A@100)
// and both events below −2000 in the second.
func TestSupervisedLatenessIsTheEngines(t *testing.T) {
	ev := func(typ string, ts Time) Event { return pairEvent(typ, ts, 0, 1) }
	sorted := gen.Uniform(400, []string{"A", "B", "C"}, 3, 5, 7)
	beyond := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 60, Seed: 8})
	if gen.MaxDelay(beyond) <= 20 {
		t.Fatal("the beyond-K stream stays within K")
	}
	for _, c := range []struct {
		name   string
		within string
		k      Time
		events []Event
	}{
		{"ignored-type-moves-no-clock", "50", 50, seqd(ev("A", 100), ev("C", 200), ev("B", 120))},
		{"below-zero", "2000", 2000, seqd(ev("B", -1000), ev("A", -2500), ev("B", -2400))},
		{"beyond-K", "50", 20, beyond},
	} {
		for _, q := range lateQueries(t, c.within) {
			emitted := 0
			for _, s := range Strategies() {
				cfg := Config{Strategy: s, K: c.k}
				mem := MustNewEngine(q, cfg)
				want := mem.ProcessAll(c.events)
				en := supervised(t, q, cfg)
				got := en.ProcessAll(c.events)
				if err := en.Err(); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s %s aggregate=%v", c.name, s, q.HasAggregate())
				if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Errorf("%s: durable output differs from in memory\n got  %+v\n want %+v", name, got, want)
				}
				emitted += len(want)
				wm, gm := mem.Metrics(), en.Metrics()
				if wm.EventsIn != gm.EventsIn || wm.EventsLate != gm.EventsLate || wm.SheddedEvents != gm.SheddedEvents {
					t.Errorf("%s: durable in/late/shed %d/%d/%d, in memory %d/%d/%d", name,
						gm.EventsIn, gm.EventsLate, gm.SheddedEvents, wm.EventsIn, wm.EventsLate, wm.SheddedEvents)
				}
			}
			if emitted == 0 {
				t.Errorf("%s: no strategy emits anything in memory: the stream checks nothing", c.name)
			}
		}
	}
}

// TestLateSpansAbandoned: the layer that drops an event as late abandons
// its latency span, whatever the strategy, so a dropped event never lands
// in the wall histogram. In memory and durable, of A@100 and B@10 under
// K=10, one span closes and one is abandoned.
func TestLateSpansAbandoned(t *testing.T) {
	events := seqd(pairEvent("A", 100, 0, 1), pairEvent("B", 10, 0, 1))
	for _, q := range lateQueries(t, "50") {
		for _, s := range Strategies() {
			cfg := Config{Strategy: s, K: 10, Latency: Latency{SampleEvery: 1}}
			for _, en := range []*Engine{MustNewEngine(q, cfg), supervised(t, q, cfg)} {
				en.ProcessAll(events)
				lr := en.LatencyReport()
				if lr.SpansSampled != 2 || lr.SpansAbandoned != 1 || lr.Wall.Count != 1 {
					t.Errorf("%s aggregate=%v: sampled %d abandoned %d wall %d; want 2, 1 and 1",
						en.Strategy(), q.HasAggregate(), lr.SpansSampled, lr.SpansAbandoned, lr.Wall.Count)
				}
			}
		}
	}
}

// TestDedupeHorizon: the supervisor forgets a Seq once the engine's safe
// clock has passed its timestamp, because the engine then drops any
// duplicate as late. A duplicate offered 1 100 admissions after its
// original (the horizon is purged every 1 024) is not suppressed by the
// supervisor; the engine drops it, and the output is the in-memory output
// of the same stream, where the duplicate is just as late.
func TestDedupeHorizon(t *testing.T) {
	var events []Event
	for i := 0; i < 1100; i++ {
		events = append(events, pairEvent([]string{"A", "B"}[i%2], Time(10*i), 0, int64(i/2%4)))
	}
	events = seqd(events...)
	events = append(events, events[0])
	for _, q := range lateQueries(t, "50") {
		for _, s := range Strategies() {
			cfg := Config{Strategy: s, K: 20}
			mem := MustNewEngine(q, cfg)
			want := mem.ProcessAll(events)
			en := supervised(t, q, cfg)
			got := en.ProcessAll(events)
			if err := en.Err(); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s aggregate=%v", s, q.HasAggregate())
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) || len(want) == 0 {
				t.Errorf("%s: durable run emits %d, in memory %d", name, len(got), len(want))
			}
			wm, gm := mem.Metrics(), en.Metrics()
			if gm.DuplicatesSuppressed != 0 || gm.EventsIn != wm.EventsIn || gm.EventsLate != wm.EventsLate {
				t.Errorf("%s: durable suppressed %d, in %d, late %d; in memory in %d, late %d; want the engine to drop the duplicate",
					name, gm.DuplicatesSuppressed, gm.EventsIn, gm.EventsLate, wm.EventsIn, wm.EventsLate)
			}
			if !q.HasAggregate() && wm.EventsLate != 1 {
				t.Errorf("%s: %d late in memory, want the duplicate alone", name, wm.EventsLate)
			}
		}
	}
}

// The files under testdata/supervised were written at 2999302 from
// fixtureQuery over stream.trace (200 events in arrival order, K = 39, their
// largest delay):
//
//	dir/     a supervised directory checkpointed every 64 events and killed
//	         after 150 events with two matches committed past the newest
//	         checkpoint
//	emitted  the keys of what it had delivered by then, one a line
//	resumed  the keys of what that version delivered on reopening the
//	         directory: Start, the 150th event offered again, the rest of
//	         the stream and a flush
//
// Both lists are the ones the first version of the directory delivered, the
// last whose supervisor judged lateness by a clock of its own.
//
// TestResumeSupervisedFixture: such a directory resumes with the same
// delivered output, element for element.
func TestResumeSupervisedFixture(t *testing.T) {
	resumeFixture(t, "supervised", Config{K: 39})
}

// fixtureQuery is the query of the supervised, kslack and hybrid fixtures.
const fixtureQuery = "PATTERN SEQ(A a, !(C c), B b) WHERE a.id = b.id AND a.id = c.id WITHIN 50"

// resumeFixture copies testdata/<name>/dir, a supervised directory of
// fixtureQuery killed after 150 events of testdata/supervised/stream.trace,
// resumes it under cfg as the writing version did, and checks the delivery
// against that version's (resumed) and, with what was delivered before the
// kill (emitted), against the uninterrupted run.
func resumeFixture(t *testing.T, name string, cfg Config) {
	t.Helper()
	const cut = 150
	q := MustCompile(fixtureQuery, nil)
	read := func(dir, name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	events, err := trace.NewReader(bytes.NewReader(read("supervised", "stream.trace"))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, err := os.ReadDir(filepath.Join("testdata", name, "dir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.Name()), read(name, filepath.Join("dir", f.Name())), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	en, err := NewSupervisedEngine(q, cfg, SupervisorConfig{Dir: dir, CheckpointEvery: 64, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	got, err := en.Start()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, en.ProcessAll(append([]Event{events[cut-1]}, events[cut:]...))...)
	if err := en.Err(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, m := range got {
		keys = append(keys, m.Key())
	}
	if want := strings.Fields(string(read(name, "resumed"))); !slices.Equal(keys, want) {
		t.Errorf("%s: resumed delivery %v, the writing version delivered %v", name, keys, want)
	}
	delivered := strings.Fields(string(read(name, "emitted")) + " " + strings.Join(keys, " "))
	var whole []string
	for _, m := range MustNewEngine(q, cfg).ProcessAll(events) {
		whole = append(whole, m.Key())
	}
	slices.Sort(delivered)
	slices.Sort(whole)
	if !slices.Equal(delivered, whole) {
		t.Errorf("%s: delivered before and after the kill %v, the uninterrupted run %v", name, delivered, whole)
	}
}

// TestAggregateCountsLateEvents: an event beyond the disorder bound is
// counted late once, in an aggregate as in the pattern it aggregates, under
// every strategy. The drop happens beneath the aggregation operator, in the
// series the operator's carries: before EventsLate was a carried row an
// aggregate read 0 here where the pattern read 2.
func TestAggregateCountsLateEvents(t *testing.T) {
	queries := []*Query{
		MustCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil),
		MustCompile("AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 100 SLIDE 10", nil),
	}
	for _, q := range queries {
		for _, s := range []Strategy{StrategyNative, StrategyKSlack, StrategySpeculate, StrategyHybrid} {
			en, err := NewEngine(q, Config{Strategy: s, K: 5})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range seqd(pairEvent("A", 10, 0, 1), pairEvent("B", 100, 0, 1), pairEvent("A", 20, 0, 1), pairEvent("B", 30, 0, 1)) {
				en.Process(e)
			}
			en.Flush()
			if got := en.Metrics().EventsLate; got != 2 {
				t.Errorf("%s under %s: %d events late, want 2 (A@20 and B@30 behind B@100 at K 5)", q.Source(), s, got)
			}
		}
	}
}
