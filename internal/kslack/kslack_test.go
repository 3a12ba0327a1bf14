package kslack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

func TestReleaseInOrder(t *testing.T) {
	b := NewBuffer(10)
	var released []event.Event
	push := func(ts event.Time, seq event.Seq) {
		released = append(released, b.Push(event.Event{Type: "T", TS: ts, Seq: seq})...)
	}
	push(5, 1)
	push(3, 2) // out of order, within slack
	push(8, 3)
	if len(released) != 0 {
		t.Fatalf("nothing should release before watermark moves: %v", released)
	}
	push(20, 4) // watermark = 10: releases 3,5,8
	if len(released) != 3 {
		t.Fatalf("released = %v", released)
	}
	if released[0].TS != 3 || released[1].TS != 5 || released[2].TS != 8 {
		t.Errorf("release order wrong: %v", released)
	}
	released = append(released, b.Flush()...)
	if len(released) != 4 || released[3].TS != 20 {
		t.Errorf("flush wrong: %v", released)
	}
	if b.Len() != 0 {
		t.Error("buffer not empty after flush")
	}
}

func TestWatermarkBoundaryInclusive(t *testing.T) {
	b := NewBuffer(10)
	b.Push(event.Event{TS: 5, Seq: 1})
	out := b.Push(event.Event{TS: 15, Seq: 2}) // watermark = 5: releases ts<=5
	if len(out) != 1 || out[0].TS != 5 {
		t.Fatalf("watermark release: %v", out)
	}
}

func TestLateEventDropped(t *testing.T) {
	b := NewBuffer(10)
	b.Push(event.Event{TS: 100, Seq: 1}) // watermark 90
	out := b.Push(event.Event{TS: 89, Seq: 2})
	if out != nil || b.Dropped() != 1 {
		t.Fatalf("below-watermark event should drop: out=%v dropped=%d", out, b.Dropped())
	}
	// Delay of exactly K (ts == watermark) is still within the bound: the
	// event is accepted and releasable immediately.
	out = b.Push(event.Event{TS: 90, Seq: 3})
	if b.Dropped() != 1 {
		t.Fatal("at-watermark event must be accepted")
	}
	if len(out) != 1 || out[0].TS != 90 {
		t.Fatalf("at-watermark event should release immediately: %v", out)
	}
	if out := b.Push(event.Event{TS: 91, Seq: 4}); b.Dropped() != 1 || len(out) != 0 {
		t.Fatalf("91 > watermark should be accepted and buffered: %v", out)
	}
}

func TestAdvanceHeartbeat(t *testing.T) {
	b := NewBuffer(10)
	b.Push(event.Event{TS: 5, Seq: 1})
	out := b.Advance(20)
	if len(out) != 1 || out[0].TS != 5 {
		t.Fatalf("Advance should release: %v", out)
	}
	// Advance backwards is a no-op.
	if out := b.Advance(1); len(out) != 0 {
		t.Fatalf("backward advance released: %v", out)
	}
	if b.Watermark() != 10 {
		t.Errorf("watermark = %d", b.Watermark())
	}
}

// TestAdvanceToMaxTime: a heartbeat at the top of the timestamp range
// releases everything held, the event at the top included.
func TestAdvanceToMaxTime(t *testing.T) {
	// A K=0 buffer holds something only when restored with it.
	b := RestoreBuffer(0, 5, true, []event.Event{{TS: 7, Seq: 2}, {TS: math.MaxInt64, Seq: 3}})
	out := b.Advance(math.MaxInt64)
	if len(out) != 2 || out[0].Seq != 2 || out[1].Seq != 3 || b.Len() != 0 {
		t.Fatalf("Advance(MaxInt64) at K=0 released %v, %d left; want seq 2 then 3 and none", out, b.Len())
	}
}

// TestRestoreBufferSortsPending: the restored events are released on
// (TS, Seq) whatever order the checkpoint listed them in.
func TestRestoreBufferSortsPending(t *testing.T) {
	b := RestoreBuffer(10, 20, true, []event.Event{{TS: 18, Seq: 4}, {TS: 12, Seq: 9}, {TS: 30, Seq: 1}, {TS: 12, Seq: 2}})
	if !event.IsSortedByTime(b.Pending()) {
		t.Errorf("Pending() = %v, want it sorted", b.Pending())
	}
	out := b.Advance(28)
	if len(out) != 3 || out[0].Seq != 2 || out[1].Seq != 9 || out[2].Seq != 4 || b.Len() != 1 {
		t.Errorf("Advance(28) released %v with %d left, want seq 2, 9, 4 and one left", out, b.Len())
	}
}

func TestEmptyBufferWatermark(t *testing.T) {
	b := NewBuffer(5)
	if b.Watermark() != minTime {
		t.Error("fresh buffer should have minimal watermark")
	}
	// First event with very small ts must not be treated as late.
	if out := b.Push(event.Event{TS: -1000, Seq: 1}); out != nil {
		t.Fatalf("first push released: %v", out)
	}
	if b.Dropped() != 0 {
		t.Error("first event dropped")
	}
}

func TestZeroSlackPassthrough(t *testing.T) {
	b := NewBuffer(0)
	out := b.Push(event.Event{TS: 5, Seq: 1})
	// Watermark = 5 releases ts<=5 immediately.
	if len(out) != 1 {
		t.Fatalf("K=0 should release immediately: %v", out)
	}
}

// shuffleBounded shuffles events such that no event is displaced by more
// than K time units relative to the max timestamp seen before it arrives.
// It does so by adding a random delay in [0, K] to each event's timestamp
// as a sort key.
func shuffleBounded(rng *rand.Rand, events []event.Event, k event.Time) []event.Event {
	type keyed struct {
		e   event.Event
		key event.Time
	}
	ks := make([]keyed, len(events))
	for i, e := range events {
		ks[i] = keyed{e: e, key: e.TS + event.Time(rng.Int63n(int64(k)+1))}
	}
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j].key < ks[j-1].key; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	out := make([]event.Event, len(ks))
	for i, kv := range ks {
		out[i] = kv.e
	}
	return out
}

func sortedStream(rng *rand.Rand, n int, types []string) []event.Event {
	events := make([]event.Event, n)
	ts := event.Time(0)
	for i := range events {
		ts += event.Time(rng.Intn(5) + 1)
		events[i] = event.Event{
			Type:  types[rng.Intn(len(types))],
			TS:    ts,
			Seq:   event.Seq(i + 1),
			Attrs: event.Attrs{"id": event.Int(int64(rng.Intn(3)))}.List(),
		}
	}
	return events
}

func TestBufferSortsAnyBoundedShuffleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := event.Time(rng.Intn(40) + 1)
		events := sortedStream(rng, 100, []string{"A", "B"})
		shuffled := shuffleBounded(rng, events, k)
		b := NewBuffer(k)
		var released []event.Event
		for _, e := range shuffled {
			released = append(released, b.Push(e)...)
		}
		released = append(released, b.Flush()...)
		if len(released)+int(b.Dropped()) != len(events) {
			return false
		}
		return event.IsSortedByTime(released)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineMatchesOracleOnDisorderedStreams(t *testing.T) {
	p, err := plan.ParseAndCompile(
		"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id WITHIN 40", nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := sortedStream(rng, 150, []string{"A", "B", "N"})
		k := event.Time(30)
		shuffled := shuffleBounded(rng, events, k)
		want := oracle.Matches(p, events)
		en := NewEngine(k, core.MustNew(p, core.Options{}), engine.Env{})
		got := engine.Drain(en, shuffled)
		if ok, diff := plan.SameResults(want, got); !ok {
			t.Fatalf("seed %d: levee engine wrong (%d vs %d):\n%s", seed, len(want), len(got), diff)
		}
		if en.Metrics().EventsLate != 0 {
			t.Fatalf("seed %d: bounded shuffle produced late drops", seed)
		}
	}
}

func TestEngineLatencyReflectsBuffering(t *testing.T) {
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(50, core.MustNew(p, core.Options{}), engine.Env{})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	en.Process(event.Event{Type: "B", TS: 20, Seq: 2})
	// Nothing released yet; push the watermark past 20.
	out := en.Process(event.Event{Type: "A", TS: 75, Seq: 3})
	if len(out) != 1 {
		out = append(out, en.Flush()...)
	}
	if len(out) != 1 {
		t.Fatalf("matches = %v", out)
	}
	s := en.Metrics()
	if s.LogicalLat.Max < 50 {
		t.Errorf("levee latency should be >= K-ish, got %d", s.LogicalLat.Max)
	}
	if s.EventsIn != 3 {
		t.Errorf("EventsIn = %d", s.EventsIn)
	}
}

func TestEngineStateCountsBuffer(t *testing.T) {
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(1000, core.MustNew(p, core.Options{}), engine.Env{})
	for i := 1; i <= 10; i++ {
		en.Process(event.Event{Type: "A", TS: event.Time(i), Seq: event.Seq(i)})
	}
	if en.StateSize() != 10 {
		t.Errorf("StateSize = %d, want 10 buffered", en.StateSize())
	}
	if en.Metrics().PeakState != 10 {
		t.Errorf("PeakState = %d", en.Metrics().PeakState)
	}
}
