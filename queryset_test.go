package oostream

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"oostream/internal/gen"
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
