package shard

import (
	"context"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/plan"
)

func shopEvent(typ string, ts event.Time, seq event.Seq, id int64) event.Event {
	e := event.New(typ, ts, event.Attrs{"id": event.Int(id)})
	e.Seq = seq
	return e
}

// TestParallelHeartbeatFlushesPendingBatch pins the batch-boundary
// contract of the ring consumers: a heartbeat popped while events sit in a
// consumer's accumulated batch must flush the batch first and Advance
// second. The stream makes the wrong order lose the match — the heartbeat
// promises a time far past the pending events, so admitting them after the
// Advance would late-drop them (their timestamps fall below clock−K) and
// the SHELF→EXIT match would never emit. Ring delivery preserves feed
// order; iterating covers the interleaving where the consumer sweeps
// events and heartbeat up in one run with the events still batched.
func TestParallelHeartbeatFlushesPendingBatch(t *testing.T) {
	const k = event.Time(5)
	p := compile(t, shopQuery)
	events := []event.Event{
		shopEvent("SHELF", 1, 1, 1),
		shopEvent("EXIT", 3, 2, 1),
	}
	iterations := 200
	if testing.Short() {
		iterations = 40
	}
	for it := 0; it < iterations; it++ {
		par, err := NewParallel(mustRouter(t, "id", 2), engine.Env{}, nativeFactory(p, k), nil)
		if err != nil {
			t.Fatal(err)
		}
		in := make(chan event.Event)
		hb := make(chan event.Time)
		out := make(chan plan.Match, 8)
		errCh := make(chan error, 1)
		go func() { errCh <- par.RunWithHeartbeats(context.Background(), in, hb, out) }()
		for _, e := range events {
			in <- e
		}
		hb <- 1_000 // far beyond both events + K
		close(in)
		var got []plan.Match
		for m := range out {
			got = append(got, m)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("iteration %d: want 1 match, got %d — a heartbeat advanced the shard clock past events still pending in the consumer batch", it, len(got))
		}
	}
}

// TestParallelHeartbeatDoesNotReleaseEarly drives the complementary
// hazard: a heartbeat must not release a negation-sealed match while
// events routed before it are still pending. COUNTER invalidates the
// SHELF→EXIT match; if the consumer Advanced past the negation window
// before admitting the batched COUNTER, the native engine would seal and
// emit a match the stream forbids.
func TestParallelHeartbeatDoesNotReleaseEarly(t *testing.T) {
	const k = event.Time(5)
	p := compile(t, shopQuery)
	events := []event.Event{
		shopEvent("SHELF", 1, 1, 1),
		shopEvent("EXIT", 3, 2, 1),
		shopEvent("COUNTER", 2, 3, 1), // late negation: invalidates the match
	}
	iterations := 200
	if testing.Short() {
		iterations = 40
	}
	for it := 0; it < iterations; it++ {
		par, err := NewParallel(mustRouter(t, "id", 2), engine.Env{}, nativeFactory(p, k), nil)
		if err != nil {
			t.Fatal(err)
		}
		in := make(chan event.Event)
		hb := make(chan event.Time)
		out := make(chan plan.Match, 8)
		errCh := make(chan error, 1)
		go func() { errCh <- par.RunWithHeartbeats(context.Background(), in, hb, out) }()
		for _, e := range events {
			in <- e
		}
		hb <- 1_000
		close(in)
		var got []plan.Match
		for m := range out {
			got = append(got, m)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("iteration %d: want 0 matches, got %d — a heartbeat released a match before the pending negation was admitted", it, len(got))
		}
	}
}

// TestDrainBatchesEqualsDrain covers the batched convenience entry for a
// spread of batch sizes, including singletons and one whole-stream batch,
// against the per-event Drain.
func TestDrainBatchesEqualsDrain(t *testing.T) {
	const k = event.Time(2_000)
	p := compile(t, shopQuery)
	events, _ := raceStream(t, 100, k)

	seq, err := New(mustRouter(t, "id", 3), engine.Env{}, nativeFactory(p, k))
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Drain(seq, events)

	for _, bs := range []int{1, 7, 64, 0} {
		par, err := NewParallel(mustRouter(t, "id", 3), engine.Env{}, nativeFactory(p, k), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.DrainBatches(context.Background(), events, bs)
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := plan.SameResults(want, got); !ok {
			t.Fatalf("DrainBatches(batchSize=%d) differs from sequential:\n%s", bs, diff)
		}
	}
}
