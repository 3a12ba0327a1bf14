package kslack

import (
	"math"
	"math/rand"
	"reflect"
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
	b := NewBuffer(0)
	b.restore(5, true, []event.Event{{TS: 7, Seq: 2}, {TS: math.MaxInt64, Seq: 3}})
	out := b.Advance(math.MaxInt64)
	if len(out) != 2 || out[0].Seq != 2 || out[1].Seq != 3 || b.Len() != 0 {
		t.Fatalf("Advance(MaxInt64) at K=0 released %v, %d left; want seq 2 then 3 and none", out, b.Len())
	}
}

// TestRestoreBufferSortsPending: the restored events are released on
// (TS, Seq) whatever order the checkpoint listed them in.
func TestRestoreBufferSortsPending(t *testing.T) {
	b := NewBuffer(10)
	b.restore(20, true, []event.Event{{TS: 18, Seq: 4}, {TS: 12, Seq: 9}, {TS: 30, Seq: 1}, {TS: 12, Seq: 2}})
	if !event.IsSortedByTime(b.pending()) {
		t.Errorf("pending() = %v, want it sorted", b.pending())
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

// TestBufferSortsAnyBoundedShuffleProperty: whatever the shuffle within K,
// the released stream is the admitted stream sorted on (TS, Seq), event for
// event and ties included — with each released run copied before the next
// push (the buffer reuses its slice), the oldest events shed part-way (shed
// events are discarded, not admitted), and the buffer checkpointed and
// restored into a fresh one mid-stream. At the end every arena slot is free
// and zeroed.
func TestBufferSortsAnyBoundedShuffleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := event.Time(rng.Intn(40) + 1)
		events := sortedStream(rng, 100, []string{"A", "B"})
		for i := 1; i < len(events); i += 2 {
			// Pairs due together: they leave in Seq order.
			events[i].TS = events[i-1].TS
		}
		shuffled := shuffleBounded(rng, events, k)
		shedAt, restoreAt := rng.Intn(len(shuffled)), rng.Intn(len(shuffled))
		b := NewBuffer(k)
		var released, shed []event.Event
		dropped := uint64(0)
		for i, e := range shuffled {
			if i == restoreAt {
				// A checkpoint may list the held events in any order.
				maxSeen, started := b.MaxSeen()
				pending := b.pending()
				rng.Shuffle(len(pending), func(x, y int) { pending[x], pending[y] = pending[y], pending[x] })
				dropped += b.Dropped()
				b = NewBuffer(k)
				b.restore(maxSeen, started, pending)
			}
			released = append(released, b.Push(e)...)
			if i == shedAt {
				shed = append(shed, b.ShedOldest(b.Len()/2)...)
			}
		}
		released = append(released, b.Flush()...)
		dropped += b.Dropped()
		if len(released)+len(shed)+int(dropped) != len(events) {
			t.Logf("seed %d: %d released + %d shed + %d dropped != %d", seed, len(released), len(shed), dropped, len(events))
			return false
		}
		gone := make(map[event.Seq]bool, len(shed))
		for _, e := range shed {
			gone[e.Seq] = true
		}
		var want []event.Event
		for _, e := range events {
			if !gone[e.Seq] {
				want = append(want, e)
			}
		}
		if !reflect.DeepEqual(released, want) {
			t.Logf("seed %d: released %v, want %v", seed, released, want)
			return false
		}
		for i, e := range b.events {
			if !reflect.DeepEqual(e, event.Event{}) {
				t.Logf("seed %d: arena slot %d still holds %v", seed, i, e)
				return false
			}
		}
		return len(b.free) == len(b.events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferSteadyStateAllocFree: the entries the buffer's queue moves
// carry no pointer, and once the arena, the queue's chunks and the release
// slice have grown to the stream's needs, a push allocates nothing — in
// order, where each push releases one event, and with one event in five
// arriving late within K, spliced into the held run.
func TestBufferSteadyStateAllocFree(t *testing.T) {
	chunks, _ := reflect.TypeOf(NewBuffer(0).held).FieldByName("chunks")
	if entry := chunks.Type.Elem().Elem(); hasPointers(entry) {
		t.Errorf("the reorder queue's entry %s carries a pointer", entry)
	}
	const k, warm, runs = 1000, 20 * 1000, 1000
	for _, late := range []float64{0, 0.2} {
		rng := rand.New(rand.NewSource(1))
		events := make([]event.Event, warm+runs+1)
		var maxTS event.Time
		for i := range events {
			ts := maxTS + 1
			if rng.Float64() < late {
				ts = maxTS - event.Time(rng.Intn(k))
			} else {
				maxTS = ts
			}
			events[i] = event.Event{Type: "A", TS: ts, Seq: event.Seq(i + 1), Attrs: event.Attrs{"id": event.Int(int64(i % 7))}.List()}
		}
		b := NewBuffer(k)
		for _, e := range events[:warm] {
			b.Push(e)
		}
		next, released := warm, 0
		allocs := testing.AllocsPerRun(runs, func() {
			released += len(b.Push(events[next]))
			next++
		})
		if allocs != 0 {
			t.Errorf("late share %.1f: a push allocated %.3f times", late, allocs)
		}
		if b.Dropped() != 0 || released == 0 {
			t.Errorf("late share %.1f: %d dropped, %d released", late, b.Dropped(), released)
		}
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// collector must trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
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
