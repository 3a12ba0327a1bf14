package oostream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"oostream/internal/gen"
	"oostream/internal/trace"
)

// querySetFixture builds a disordered RFID stream plus two queries over
// disjoint aspects of it: the shoplifting negation query and a plain
// shelf-to-exit sequence.
func querySetFixture(t *testing.T) (seq, neg *Query, events []Event) {
	t.Helper()
	seq = MustCompile("PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s", gen.RFIDSchema())
	neg = rfidQuery(t)
	sorted := gen.RFID(gen.DefaultRFID(120, 9))
	return seq, neg, gen.Shuffle(sorted, gen.Disorder{Ratio: 0.2, MaxDelay: 400, Seed: 10})
}

// TestQuerySetMatchesIndependentEngines is the basic contract: each
// registered query's tagged output equals a dedicated single-query engine
// of every strategy on the same arrival order.
func TestQuerySetMatchesIndependentEngines(t *testing.T) {
	seq, neg, events := querySetFixture(t)
	set := MustNewQuerySet(QuerySetConfig{K: 400})
	if err := set.Register("seq", seq); err != nil {
		t.Fatal(err)
	}
	if err := set.Register("neg", neg); err != nil {
		t.Fatal(err)
	}
	byID := map[string][]Match{}
	for _, m := range set.ProcessAll(events) {
		byID[m.Query] = append(byID[m.Query], m)
	}
	for _, st := range Strategies() {
		for id, q := range map[string]*Query{"seq": seq, "neg": neg} {
			want := MustNewEngine(q, Config{Strategy: st, K: 400}).ProcessAll(events)
			if ok, diff := SameResults(want, byID[id]); !ok {
				t.Errorf("%s/%s differs from independent engine:\n%s", st, id, diff)
			}
		}
	}
}

// TestQuerySetGatingSkips checks the event-type index and prefix gates do
// real work: on a stream where most events cannot extend any open prefix,
// Stats must report skipped probes without costing any matches.
func TestQuerySetGatingSkips(t *testing.T) {
	// EXIT events gate on a SHELF for the same id within the window; ids
	// 50.. never see a SHELF, so every one of their EXITs must be skipped.
	q := MustCompile("PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 100", nil)
	var events []Event
	ts := Time(0)
	for i := 0; i < 400; i++ {
		ts += 10
		id := int64(i % 100)
		typ := "EXIT"
		if id < 50 && i%2 == 0 {
			typ = "SHELF"
		}
		events = append(events, NewEvent(typ, ts, Attrs{"id": Int(id)}))
	}
	set := MustNewQuerySet(QuerySetConfig{K: 50})
	if err := set.Register("q", q); err != nil {
		t.Fatal(err)
	}
	got := set.ProcessAll(events)
	want := MustNewEngine(q, Config{K: 50}).ProcessAll(events)
	if ok, diff := SameResults(want, got); !ok {
		t.Fatalf("gated output differs:\n%s", diff)
	}
	st := set.Stats()
	if len(st) != 1 || st[0].ID != "q" {
		t.Fatalf("Stats() = %+v", st)
	}
	if st[0].Skipped == 0 {
		t.Error("prefix gate never skipped a probe on a mostly-irrelevant stream")
	}
	if st[0].Dispatched == 0 {
		t.Error("no events dispatched at all")
	}
	if st[0].Dispatched+st[0].Skipped > uint64(len(events)) {
		t.Errorf("dispatched %d + skipped %d exceeds %d admitted events",
			st[0].Dispatched, st[0].Skipped, len(events))
	}
}

// TestQuerySetUnregister checks mid-stream removal: the final flush of the
// departing query is returned by Unregister, the registry shrinks, and the
// remaining query is untouched.
func TestQuerySetUnregister(t *testing.T) {
	seq, neg, events := querySetFixture(t)
	set := MustNewQuerySet(QuerySetConfig{K: 400})
	for id, q := range map[string]*Query{"seq": seq, "neg": neg} {
		if err := set.Register(id, q); err != nil {
			t.Fatal(err)
		}
	}
	var out []Match
	half := len(events) / 2
	for _, ev := range events[:half] {
		out = append(out, set.Process(ev)...)
	}
	fin, err := set.Unregister("neg")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fin {
		if m.Query != "neg" {
			t.Fatalf("Unregister flush tagged %q, want \"neg\"", m.Query)
		}
	}
	if got := set.Queries(); len(got) != 1 || got[0] != "seq" {
		t.Fatalf("Queries() after Unregister = %v", got)
	}
	if _, err := set.Unregister("neg"); err == nil {
		t.Error("Unregister of an unknown id succeeded")
	}
	for _, ev := range events[half:] {
		out = append(out, set.Process(ev)...)
	}
	out = append(out, set.Flush()...)
	for _, m := range out[len(fin):] {
		if m.Query == "neg" {
			// Matches tagged neg may only appear before the removal.
			break
		}
	}
	var seqGot []Match
	for _, m := range out {
		if m.Query == "seq" {
			seqGot = append(seqGot, m)
		}
	}
	want := MustNewEngine(seq, Config{K: 400}).ProcessAll(events)
	if ok, diff := SameResults(want, seqGot); !ok {
		t.Errorf("surviving query perturbed by Unregister:\n%s", diff)
	}
}

// TestQuerySetCheckpointRoundtrip checkpoints a half-ingested native set
// and verifies the restored set continues with the exact same tagged
// emission sequence as the original.
func TestQuerySetCheckpointRoundtrip(t *testing.T) {
	seq, neg, events := querySetFixture(t)
	cfg := QuerySetConfig{K: 400, AdvanceEvery: 7}
	mk := func() *QuerySet {
		set := MustNewQuerySet(cfg)
		for id, q := range map[string]*Query{"seq": seq, "neg": neg} {
			if err := set.Register(id, q); err != nil {
				t.Fatal(err)
			}
		}
		return set
	}
	orig, cut := mk(), len(events)/2
	for _, ev := range events[:cut] {
		orig.Process(ev)
	}
	var blob bytes.Buffer
	if err := orig.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreQuerySet(cfg, &blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Queries(); len(got) != 2 {
		t.Fatalf("restored registry = %v", got)
	}
	var want, got []Match
	for _, ev := range events[cut:] {
		want = append(want, orig.Process(ev)...)
		got = append(got, restored.Process(ev)...)
	}
	want = append(want, orig.Flush()...)
	got = append(got, restored.Flush()...)
	if len(want) != len(got) {
		t.Fatalf("continuation emitted %d matches, original %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() || want[i].Query != got[i].Query || want[i].Kind != got[i].Kind {
			t.Fatalf("emission %d: original %v %s (%s), restored %v %s (%s)",
				i, want[i].Kind, want[i].Key(), want[i].Query,
				got[i].Kind, got[i].Key(), got[i].Query)
		}
	}
}

// TestRestoreQuerySetRefusesOtherK: a set checkpoint restores only under the
// K it was written at, in memory and under a supervisor. Restored at another
// K, the levee would release and mark late by the checkpoint's K while the
// supervisor in front admits by the configured one.
func TestRestoreQuerySetRefusesOtherK(t *testing.T) {
	q := pairQuery(t)
	set := MustNewQuerySet(QuerySetConfig{K: 5})
	if err := set.Register("q", q); err != nil {
		t.Fatal(err)
	}
	for _, ev := range pairStream(0, 20) {
		set.Process(ev)
	}
	var blob bytes.Buffer
	if err := set.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreQuerySet(QuerySetConfig{K: 7}, bytes.NewReader(blob.Bytes())); err == nil {
		t.Error("RestoreQuerySet accepted a checkpoint written at K=5 under K=7")
	}
	if _, err := RestoreQuerySet(QuerySetConfig{K: 5}, bytes.NewReader(blob.Bytes())); err != nil {
		t.Errorf("RestoreQuerySet refused its own K: %v", err)
	}

	sc := SupervisorConfig{Dir: t.TempDir(), CheckpointEvery: 5, DisableFsync: true}
	durable, err := NewSupervisedQuerySet(QuerySetConfig{K: 5}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.Register("q", q); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Start(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range pairStream(0, 20) {
		durable.Process(ev)
	}
	durable.Kill()
	for k, refused := range map[Time]bool{7: true, 5: false} {
		resumed, err := NewSupervisedQuerySet(QuerySetConfig{K: k}, sc)
		if err != nil {
			t.Fatal(err)
		}
		_, err = resumed.Start()
		if (err != nil) != refused {
			t.Errorf("resumed at K=%d over checkpoints written at K=5: Start error %v", k, err)
		}
		resumed.Kill()
	}
}

// TestFlushEmitsQueryByQuery: at Flush the levee releases its tail and each
// query then finalizes in registration order, unfanned, as the set did when
// it held its own buffer. Here the tail is irrelevant to both queries but
// carries the fan-out cadence past AdvanceEvery: a fan to the watermark
// (402) would emit both queries' matches sealed at 400 ahead of each query's
// own flush (the match sealed at 405), interleaving the queries.
func TestFlushEmitsQueryByQuery(t *testing.T) {
	set := MustNewQuerySet(QuerySetConfig{K: 1000, AdvanceEvery: 16})
	for _, q := range [][2]string{{"ab", "B"}, {"ac", "C"}} {
		src := "PATTERN SEQ(A a, " + q[1] + " x, !(N n)) WITHIN 20"
		if err := set.Register(q[0], MustCompile(src, nil)); err != nil {
			t.Fatal(err)
		}
	}
	for i, at := range []Time{380, 382, 383, 385, 390, 391} {
		if ms := set.Process(NewEvent([]string{"A", "B", "C"}[i%3], at, nil)); len(ms) != 0 {
			t.Fatalf("emitted %v before the flush", ms)
		}
	}
	for at := Time(1383); at <= 1402; at++ {
		set.Process(NewEvent("X", at, nil))
	}
	var order []string
	for _, m := range set.Flush() {
		order = append(order, m.Query)
	}
	if want := []string{"ab", "ab", "ab", "ac", "ac", "ac"}; !slices.Equal(order, want) {
		t.Errorf("flush emitted for queries %v, want %v", order, want)
	}
}

// TestQuerySetSealed pins the post-Flush surface: Register and Unregister
// error, Process is refused into Err, a second Flush is a silent no-op.
func TestQuerySetSealed(t *testing.T) {
	seq, _, events := querySetFixture(t)
	set := MustNewQuerySet(QuerySetConfig{K: 400})
	if err := set.Register("seq", seq); err != nil {
		t.Fatal(err)
	}
	set.ProcessAll(events)
	if err := set.Register("late", seq); err == nil {
		t.Error("Register after Flush succeeded")
	}
	if _, err := set.Unregister("seq"); err == nil {
		t.Error("Unregister after Flush succeeded")
	}
	if got := set.Flush(); got != nil {
		t.Errorf("second Flush returned %d matches", len(got))
	}
	if ms := set.Process(events[0]); ms != nil || !errors.Is(set.Err(), errSealed) {
		t.Errorf("Process after Flush: %v, Err %v, want the sealed refusal", ms, set.Err())
	}
}

// TestQuerySetConfigValidation exercises construction errors.
func TestQuerySetConfigValidation(t *testing.T) {
	if _, err := NewQuerySet(QuerySetConfig{K: -1}); err == nil {
		t.Error("negative K accepted")
	}
	set := MustNewQuerySet(QuerySetConfig{})
	if err := set.Register("", rfidQuery(t)); err == nil {
		t.Error("empty query id accepted")
	}
	if err := set.Register("a", rfidQuery(t)); err != nil {
		t.Fatal(err)
	}
	if err := set.Register("a", rfidQuery(t)); err == nil {
		t.Error("duplicate query id accepted")
	}
	if _, err := RestoreQuerySet(QuerySetConfig{}, bytes.NewReader(nil)); err == nil {
		t.Error("RestoreQuerySet accepted an empty checkpoint")
	}
}

// TestProcessBatchEmptyNoOp is the documented contract that nil and empty
// batches are no-ops: they return nil and leave subsequent output exactly
// unchanged — for the single-query engine and the QuerySet, across every
// strategy.
func TestProcessBatchEmptyNoOp(t *testing.T) {
	seq, neg, events := querySetFixture(t)
	for _, st := range Strategies() {
		st := st
		t.Run(string(st), func(t *testing.T) {
			cfg := Config{Strategy: st, K: 400}
			plain := MustNewEngine(seq, cfg)
			noop := MustNewEngine(seq, cfg)
			var want, got []Match
			for i, ev := range events {
				if got2 := noop.ProcessBatch(nil); got2 != nil {
					t.Fatalf("ProcessBatch(nil) = %d matches, want nil", len(got2))
				}
				want = append(want, plain.Process(ev)...)
				got = append(got, noop.ProcessBatch(events[i:i+1])...)
				if got2 := noop.ProcessBatch([]Event{}); got2 != nil {
					t.Fatalf("ProcessBatch(empty) = %d matches, want nil", len(got2))
				}
			}
			want = append(want, plain.Flush()...)
			got = append(got, noop.Flush()...)
			if ok, diff := SameResults(want, got); !ok {
				t.Fatalf("engine output perturbed by no-op batches:\n%s", diff)
			}
		})
	}
	t.Run("queryset", func(t *testing.T) {
		set := MustNewQuerySet(QuerySetConfig{K: 400})
		for id, q := range map[string]*Query{"seq": seq, "neg": neg} {
			if err := set.Register(id, q); err != nil {
				t.Fatal(err)
			}
		}
		if out := set.ProcessBatch(nil); out != nil {
			t.Fatalf("QuerySet.ProcessBatch(nil) = %d matches, want nil", len(out))
		}
		if out := set.ProcessBatch([]Event{}); out != nil {
			t.Fatalf("QuerySet.ProcessBatch(empty) = %d matches, want nil", len(out))
		}
		if setGot := set.ProcessAll(events); len(setGot) == 0 {
			t.Fatal("no matches after no-op batches; fixture broken")
		}
	})
}

// TestQuerySetStatsOrder pins Stats registration order and ids.
func TestQuerySetStatsOrder(t *testing.T) {
	set := MustNewQuerySet(QuerySetConfig{})
	for i := 0; i < 5; i++ {
		q := MustCompile(fmt.Sprintf("PATTERN SEQ(A%d a, B%d b) WITHIN 10", i, i), nil)
		if err := set.Register(fmt.Sprintf("q%d", i), q); err != nil {
			t.Fatal(err)
		}
	}
	st := set.Stats()
	if len(st) != 5 {
		t.Fatalf("Stats() has %d entries, want 5", len(st))
	}
	for i, s := range st {
		if s.ID != fmt.Sprintf("q%d", i) {
			t.Fatalf("Stats()[%d].ID = %q, want q%d (registration order)", i, s.ID, i)
		}
	}
}

// TestQuerySetLatencyIncludesTheBuffer: a one-query set is the kslack
// composition (the reorder buffer in front of the kernel at K=0), so on a
// query without negation every match leaves at the same instant and the
// result latency counts the wait in the buffer, as the kslack engine's does.
// Stamped with the inner kernel's clock instead, every result read 0.
func TestQuerySetLatencyIncludesTheBuffer(t *testing.T) {
	const k = 2000
	q := MustCompile("PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s", gen.RFIDSchema())
	events := gen.Shuffle(gen.RFID(gen.DefaultRFID(500, 1)), gen.Disorder{Ratio: 0.2, MaxDelay: k, Seed: 2})

	en := MustNewEngine(q, Config{Strategy: StrategyKSlack, K: k})
	want := en.ProcessAll(events)
	set := MustNewQuerySet(QuerySetConfig{K: k})
	if err := set.Register("seq", q); err != nil {
		t.Fatal(err)
	}
	got := set.ProcessAll(events)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("set emitted %d matches, kslack %d", len(got), len(want))
	}
	type stamp struct {
		clock Time
		seq   Seq
	}
	stamps := map[string]stamp{}
	for _, m := range want {
		stamps[m.Key()] = stamp{m.EmitClock, m.EmitSeq}
	}
	for _, m := range got {
		if w, g := stamps[m.Key()], (stamp{m.EmitClock, m.EmitSeq}); w != g {
			t.Fatalf("match %s: set stamps %+v, kslack %+v", m.Key(), g, w)
		}
	}
	wl, gl := en.Metrics().LogicalLat, set.Metrics().LogicalLat
	if wl != gl {
		t.Errorf("result latency: set mean %.1f (max %d), kslack mean %.1f (max %d)", gl.Mean(), gl.Max, wl.Mean(), wl.Max)
	}
	if wl.Mean() < k/2 {
		t.Errorf("kslack mean result latency %.1f: the buffer's wait is not in it", wl.Mean())
	}
}

// TestLateIsNotDropped: an event beyond the bound is late, counted once in
// EventsLate, and counted alike by StrategyKSlack and a one-query QuerySet
// (one levee admits both); the set used to count every late event a second
// time, as dropped.
func TestLateIsNotDropped(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	var events []Event
	for i := 1; i <= 40; i++ {
		ts := Time(10 * i)
		if i%7 == 0 {
			ts -= 60 // three times K behind: late
		}
		events = append(events, NewEvent([]string{"A", "B"}[i%2], ts, nil))
	}
	en := MustNewEngine(q, Config{Strategy: StrategyKSlack, K: 20})
	en.ProcessAll(events)
	set := MustNewQuerySet(QuerySetConfig{K: 20})
	if err := set.Register("q", q); err != nil {
		t.Fatal(err)
	}
	set.ProcessAll(events)
	em, sm := en.Metrics(), set.Metrics()
	if em.EventsLate == 0 {
		t.Fatal("no late event: the stream checks nothing")
	}
	if sm.EventsLate != em.EventsLate {
		t.Errorf("late: kslack %d, set %d; want equal", em.EventsLate, sm.EventsLate)
	}
}

// TestLeveeTimeLimits pins both ends of the time range for the levee, in the
// style of core's TestTimeLimits: the reorder buffer's watermark and the
// adaptive frontier saturate instead of wrapping, so kslack, static and
// adaptive, and a one-query QuerySet emit what native does and find no event
// inside K late. The stream spans 180 ms ending at the top of the range or
// starting at its bottom, and arrives in order, in reverse and in seeded
// shuffles.
func TestLeveeTimeLimits(t *testing.T) {
	const k = 200
	rel := []struct {
		typ string
		at  Time
	}{{"A", 0}, {"A", 30}, {"B", 50}, {"N", 60}, {"B", 90}, {"A", 120}, {"N", 125}, {"B", 180}}
	for _, base := range []Time{math.MaxInt64 - 180, math.MinInt64} {
		sorted := make([]Event, len(rel))
		for i, r := range rel {
			sorted[i] = NewEvent(r.typ, base+r.at, nil)
			sorted[i].Seq = Seq(i + 1)
		}
		orders := [][]Event{sorted, slices.Clone(sorted)}
		slices.Reverse(orders[1])
		for seed := int64(0); seed < 10; seed++ {
			shuffled := slices.Clone(sorted)
			rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			orders = append(orders, shuffled)
		}
		for _, src := range []string{
			"PATTERN SEQ(A a, B b) WITHIN 100",
			"PATTERN SEQ(A a, B b, !(N n)) WITHIN 100",
			"PATTERN SEQ(!(N n), A a, B b) WITHIN 100",
		} {
			q := MustCompile(src, nil)
			levees := map[string]func([]Event) ([]Match, Metrics){
				"kslack":          engineRun(q, Config{Strategy: StrategyKSlack, K: k}),
				"kslack-adaptive": engineRun(q, Config{Strategy: StrategyKSlack, K: k, Adaptive: Adaptive{Enabled: true, MinK: k}}),
				"queryset": func(in []Event) ([]Match, Metrics) {
					set := MustNewQuerySet(QuerySetConfig{K: k})
					if err := set.Register("q", q); err != nil {
						t.Fatal(err)
					}
					return set.ProcessAll(in), set.Metrics()
				},
			}
			for i, in := range orders {
				want := MustNewEngine(q, Config{K: k}).ProcessAll(in)
				if len(want) == 0 {
					t.Fatalf("%s at %d: native finds nothing to compare", src, base)
				}
				for name, run := range levees {
					got, m := run(in)
					if ok, diff := SameResults(want, got); !ok {
						t.Fatalf("%s at %d, %s, order %d: %d matches, native %d:\n%s", src, base, name, i, len(got), len(want), diff)
					}
					if m.EventsLate != 0 {
						t.Fatalf("%s at %d, %s, order %d: %d late events inside K", src, base, name, i, m.EventsLate)
					}
				}
			}
		}
	}
}

// engineRun runs a stream through a fresh engine of q under cfg.
func engineRun(q *Query, cfg Config) func([]Event) ([]Match, Metrics) {
	return func(in []Event) ([]Match, Metrics) {
		en := MustNewEngine(q, cfg)
		return en.ProcessAll(in), en.Metrics()
	}
}

// testdata/queryset was written at adc73ce, the last commit at which a
// QuerySet held its own reorder buffer, over stream.trace (623 events in
// arrival order) and two queries keyed by id:
//
//	set.ckpt  the set's checkpoint (format v2: buffer and registry in one
//	          object) after 300 events under QuerySetConfig{K: 2000,
//	          AdvanceEvery: 16}: 211 events held in the buffer, each query's
//	          prefix gates open for 68 keys
//	set.rest  what that set emitted for the rest of the trace and a flush,
//	          one "<query> <match>" a line
//
// The restored set emits the same, in the same order: a supervised set's
// resume suppresses the matches delivered before a crash by count.
func TestRestoreQuerySetFixture(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile("testdata/queryset/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	events, err := trace.NewReader(bytes.NewReader(read("stream.trace"))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := string(read("set.rest"))
	cfg := QuerySetConfig{K: 2000, AdvanceEvery: 16}
	continuation := func(ckpt []byte) (string, []byte) {
		qs, err := RestoreQuerySet(cfg, bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		if ids := qs.Queries(); !slices.Equal(ids, []string{"seq", "neg"}) {
			t.Fatalf("restored registry %v, want [seq neg]", ids)
		}
		var again bytes.Buffer
		if err := qs.Checkpoint(&again); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for _, m := range qs.ProcessAll(events[300:]) {
			fmt.Fprintf(&out, "%s %s\n", m.Query, m)
		}
		return out.String(), again.Bytes()
	}
	got, again := continuation(read("set.ckpt"))
	if got != want {
		t.Errorf("the restored set continues differently from the writer\n got:\n%s\nwant:\n%s", got, want)
	}
	// Written again in the levee's format, it continues the same way.
	if got, _ := continuation(again); got != want {
		t.Error("the checkpoint a restored set writes continues differently")
	}
}
