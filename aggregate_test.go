package oostream

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"oostream/internal/event"
	"oostream/internal/plan"
)

// aggQuery compiles a small grouped aggregate over an id-linked pair
// pattern; every test that needs a generic AGGREGATE query shares it.
func aggQuery(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasAggregate() {
		t.Fatalf("query %q compiled without an aggregate", src)
	}
	return q
}

func aggEvent(typ string, ts Time, seq Seq, id, v int64) Event {
	return Event{Type: typ, TS: ts, Seq: seq, Attrs: Attrs{"id": Int(id), "v": Int(v)}.List()}
}

// TestAggregateHandComputed pins the full emitted window set of a tiny
// tumbling SUM stream against values computed by hand, read off Match.Agg.
func TestAggregateHandComputed(t *testing.T) {
	q := aggQuery(t, "AGGREGATE SUM(b.v) OVER SEQ(A a, B b) WHERE a.id = b.id WITHIN 10")
	en := MustNewEngine(q, Config{K: 2})
	events := []Event{
		aggEvent("A", 1, 1, 1, 0),
		aggEvent("B", 3, 2, 1, 5), // match (A@1,B@3) -> window (0,10]
		aggEvent("A", 12, 3, 2, 0),
		aggEvent("B", 15, 4, 2, 7), // match (A@12,B@15) -> window (10,20]
		aggEvent("B", 16, 5, 9, 1), // no A with id 9: contributes nothing
	}
	ms := en.ProcessAll(events)
	if len(ms) != 2 {
		t.Fatalf("got %d results, want 2: %v", len(ms), ms)
	}
	want := []struct {
		end Time
		sum int64
	}{{10, 5}, {20, 7}}
	for i, m := range ms {
		if m.Kind == Retract {
			t.Fatalf("result %d retracted in sealed mode", i)
		}
		a := m.Agg
		if a == nil {
			t.Fatalf("result %d has no aggregate payload", i)
		}
		if a.Func != "SUM" || a.WindowEnd != want[i].end || a.WindowStart != want[i].end-10 {
			t.Errorf("result %d window = %s(%d,%d], want SUM(%d,%d]",
				i, a.Func, a.WindowStart, a.WindowEnd, want[i].end-10, want[i].end)
		}
		if a.Value != Int(want[i].sum) || a.Count != 1 {
			t.Errorf("result %d value = %s count=%d, want %d count=1", i, a.Value, a.Count, want[i].sum)
		}
		if a.HasGroup {
			t.Errorf("result %d grouped without GROUP BY", i)
		}
		if m.String() == "" {
			t.Errorf("result %d has empty String()", i)
		}
	}
}

// TestAggregateAllStrategiesAgree runs a grouped AVG with HAVING through
// every strategy on a disordered stream; applied retractions must converge
// every strategy to the in-order engine's output on the sorted stream.
func TestAggregateAllStrategiesAgree(t *testing.T) {
	q := aggQuery(t, `
		AGGREGATE AVG(b.v) OVER SEQ(A a, B b)
		WHERE a.id = b.id
		WITHIN 8 SLIDE 4
		GROUP BY a.id
		HAVING w.count >= 1`)
	sorted := []Event{
		aggEvent("A", 1, 1, 1, 0),
		aggEvent("B", 2, 2, 1, 4),
		aggEvent("A", 3, 3, 2, 0),
		aggEvent("B", 5, 4, 2, 6),
		aggEvent("B", 6, 5, 1, 2),
		aggEvent("A", 9, 6, 1, 0),
		aggEvent("B", 12, 7, 1, 8),
		aggEvent("A", 14, 8, 2, 0),
		aggEvent("B", 17, 9, 2, 3),
	}
	disordered := []Event{
		sorted[1], sorted[0], sorted[3], sorted[2], sorted[5],
		sorted[4], sorted[6], sorted[8], sorted[7],
	}
	want := MustNewEngine(q, Config{}).ProcessAll(sorted)
	if len(want) == 0 {
		t.Fatal("no windows in sanity workload")
	}
	for _, s := range Strategies() {
		got := MustNewEngine(q, Config{Strategy: s, K: 3}).ProcessAll(disordered)
		if ok, diff := SameResults(want, got); !ok {
			t.Errorf("strategy %s diverges:\n%s", s, diff)
		}
	}
}

// TestAggregateCheckpointRoundTrip snapshots a native aggregate engine
// mid-stream and checks the restored engine finishes the stream with the
// same windows as the uninterrupted run.
func TestAggregateCheckpointRoundTrip(t *testing.T) {
	q := aggQuery(t, `
		AGGREGATE MAX(b.v) OVER SEQ(A a, B b)
		WHERE a.id = b.id
		WITHIN 6 SLIDE 3
		GROUP BY a.id`)
	var events []Event
	seq := Seq(1)
	for k := Time(0); k < 30; k++ {
		events = append(events, aggEvent("A", k, seq, int64(k)%3, int64(k)%5))
		seq++
		events = append(events, aggEvent("B", k+1, seq, int64(k)%3, int64(k)%7))
		seq++
	}
	cut := len(events) / 2

	whole := MustNewEngine(q, Config{K: 4})
	var want []Match
	for _, ev := range events {
		want = append(want, whole.Process(ev)...)
	}
	want = append(want, whole.Flush()...)

	first := MustNewEngine(q, Config{K: 4})
	var got []Match
	for _, ev := range events[:cut] {
		got = append(got, first.Process(ev)...)
	}
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(q, Config{K: 4}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[cut:] {
		got = append(got, restored.Process(ev)...)
	}
	got = append(got, restored.Flush()...)
	if ok, diff := SameResults(want, got); !ok {
		t.Errorf("restored run diverges from uninterrupted run:\n%s", diff)
	}
}

// TestAggregateRunResults drives an aggregate query's results through the
// channel pipeline.
func TestAggregateRunResults(t *testing.T) {
	q := aggQuery(t, "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WHERE a.id = b.id WITHIN 10")
	en := MustNewEngine(q, Config{K: 2})
	in := make(chan Event, 8)
	out := make(chan Match, 8)
	go func() {
		in <- aggEvent("A", 1, 1, 1, 0)
		in <- aggEvent("B", 3, 2, 1, 1)
		close(in)
	}()
	errc := make(chan error, 1)
	go func() { errc <- en.Run(context.Background(), in, out) }()
	var ms []Match
	for m := range out {
		ms = append(ms, m)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d results, want 1: %v", len(ms), ms)
	}
	if a := ms[0].Agg; a == nil || a.Func != "COUNT" || a.Count != 1 {
		t.Fatalf("aggregate = %+v, want COUNT of 1", a)
	}
}

// TestPatternMatchHasNoAgg: a plain pattern query's matches carry no
// aggregate payload and their events intact.
func TestPatternMatchHasNoAgg(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 10", nil)
	if q.HasAggregate() {
		t.Fatal("pattern query reports an aggregate")
	}
	en := MustNewEngine(q, Config{K: 1})
	en.Process(aggEvent("A", 1, 1, 1, 0))
	ms := en.Process(aggEvent("B", 2, 2, 1, 0))
	ms = append(ms, en.Flush()...)
	if len(ms) != 1 {
		t.Fatalf("got %d results, want 1", len(ms))
	}
	if ms[0].Agg != nil {
		t.Error("pattern match has an aggregate payload")
	}
	if len(ms[0].Events) != 2 {
		t.Errorf("match has %d events, want 2", len(ms[0].Events))
	}
}

// TestAggregateTimeLimits: an aggregate's windows do not depend on where in
// the time range the stream lies. At a negative base the first event used to
// count as late against a clock that started at 0, and the windows sealed
// before their matches arrived (1, 1, 1, 1 where the counts are 3, 3, 1, 1);
// at the top of the range the window-end arithmetic wrapped and ProcessAll
// never returned; at the bottom, clock − lateness wrapped. Each base lies on
// the slide grid, so the windows are the base-1000 run's, shifted, with the
// window start saturated where it falls below the range; the top one is the
// highest whose last window end (base + 200) is in the range. Off the grid
// at MaxInt64 − 160, the last end is past the range and saturates.
func TestAggregateTimeLimits(t *testing.T) {
	q := aggQuery(t, "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 100 SLIDE 50")
	const window, slide = 100, 50
	run := func(s Strategy, base Time) []Match {
		var sorted []Event
		for i, at := range []Time{0, 10, 30, 50, 120, 150} {
			typ := "A"
			if i%2 == 1 {
				typ = "B"
			}
			sorted = append(sorted, Event{Type: typ, TS: base + at, Seq: Seq(i + 1)})
		}
		// B@10 arrives before A@0: disorder within K.
		arrival := append([]Event{sorted[1], sorted[0]}, sorted[2:]...)
		return MustNewEngine(q, Config{Strategy: s, K: 20}).ProcessAll(arrival)
	}
	counts := func(ms []Match) (out []int64) {
		for _, m := range ms {
			out = append(out, m.Agg.Count)
		}
		return out
	}
	if got := counts(run(StrategyNative, 1000)); fmt.Sprint(got) != "[3 3 1 1]" {
		t.Fatalf("window counts at base 1000 = %v, want [3 3 1 1]", got)
	}
	for _, s := range Strategies() {
		want := run(s, 1000)
		for _, base := range []Time{-1000, plan.AlignUp(math.MinInt64, slide), (math.MaxInt64 - 200) / slide * slide} {
			got := run(s, base)
			if len(got) != len(want) {
				t.Fatalf("%s at %d: %d windows %v, base 1000 gives %d", s, base, len(got), counts(got), len(want))
			}
			for i, m := range got {
				a, w := *m.Agg, *want[i].Agg
				if m.Kind != want[i].Kind || a.WindowEnd-(base-1000) != w.WindowEnd ||
					a.WindowStart != event.SubSat(a.WindowEnd, window) || a.Count != w.Count || a.Value != w.Value {
					t.Fatalf("%s at %d: window %d is %v %+v, base 1000 gives %v %+v", s, base, i, m.Kind, a, want[i].Kind, w)
				}
			}
		}
		top := run(s, math.MaxInt64-160)
		if got := counts(top); fmt.Sprint(got) != "[3 3 1 1]" || top[3].Agg.WindowEnd != math.MaxInt64 {
			t.Errorf("%s at MaxInt64-160: window counts %v, last end %d; want [3 3 1 1] ending at MaxInt64", s, got, top[len(top)-1].Agg.WindowEnd)
		}
		// The lag of an event the whole range behind the clock saturates at
		// the top of the range instead of wrapping below zero.
		en := MustNewEngine(q, Config{Strategy: s, K: 20})
		en.ProcessAll([]Event{{Type: "A", TS: math.MaxInt64, Seq: 1}, {Type: "B", TS: math.MinInt64, Seq: 2}})
		if lag := en.Metrics().WatermarkLag.Max; lag != math.MaxInt64 {
			t.Errorf("%s: an event the range behind lags %d, want MaxInt64", s, lag)
		}
	}
}

// TestAggregateRetractsWhatWasRetracted: a retraction removes the element of
// the match it retracts, even when two matches bind events with the same
// sequence numbers. Both (A#1, B#2) pairs below render the same match key;
// the late C@15 kills the first, and the retraction must take away MAX 50,
// not the 9 of the pair that stands. The negation-free query over the four
// pairs' events reports its two live elements as pending state.
func TestAggregateRetractsWhatWasRetracted(t *testing.T) {
	q := aggQuery(t, "AGGREGATE MAX(b.v) OVER SEQ(A a, !(C c), B b) WHERE a.id = b.id AND a.id = c.id WITHIN 100 SLIDE 10")
	events := []Event{
		aggEvent("A", 10, 1, 5, 0),
		aggEvent("B", 20, 2, 5, 50),
		aggEvent("A", 30, 1, 7, 0),
		aggEvent("B", 40, 2, 7, 9),
		aggEvent("C", 15, 3, 5, 0),
	}
	want := MustNewEngine(q, Config{Strategy: StrategyNative, K: 50}).ProcessAll(events)
	if len(want) == 0 {
		t.Fatal("native emits no window")
	}
	for _, m := range want {
		if m.Agg.Value != Int(9) || m.Agg.Count != 1 {
			t.Fatalf("native window %s: want MAX 9 over one match", m)
		}
	}
	for _, s := range Strategies() {
		got := MustNewEngine(q, Config{Strategy: s, K: 50}).ProcessAll(events)
		if ok, diff := SameResults(want, got); !ok {
			t.Errorf("strategy %s diverges from native:\n%s", s, diff)
		}
	}

	plain := aggQuery(t, "AGGREGATE MAX(b.v) OVER SEQ(A a, B b) WHERE a.id = b.id WITHIN 100 SLIDE 10")
	en := MustNewEngine(plain, Config{Strategy: StrategyNative, K: 50})
	for _, e := range events[:4] {
		en.Process(e)
	}
	// Two elements, under the kernel's four stacked events.
	if s := en.StateSnapshot(); s.Pending != 2 || en.StateSize() != 6 {
		t.Fatalf("Pending %d, StateSize %d; want the 2 live elements and 6", s.Pending, en.StateSize())
	}
}
