package shard

import (
	"context"
	"sync"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

// raceStream builds a disordered RFID stream and the safe heartbeat
// schedule for it: after arrival i, a source may promise time
// min(remaining timestamps) + k without making any later arrival late.
func raceStream(t *testing.T, items int, k event.Time) ([]event.Event, []event.Time) {
	t.Helper()
	sorted := gen.RFID(gen.DefaultRFID(items, 424242))
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: k, Seed: 31})
	minFuture := make([]event.Time, len(shuffled)+1)
	const maxTime = event.Time(1<<62 - 1)
	minFuture[len(shuffled)] = maxTime
	for i := len(shuffled) - 1; i >= 0; i-- {
		minFuture[i] = minFuture[i+1]
		if shuffled[i].TS < minFuture[i] {
			minFuture[i] = shuffled[i].TS
		}
	}
	hbs := make([]event.Time, len(shuffled))
	for i := range hbs {
		if minFuture[i+1] == maxTime {
			hbs[i] = shuffled[i].TS // last events: heartbeat at own time
		} else {
			hbs[i] = minFuture[i+1] + k
		}
	}
	return shuffled, hbs
}

// TestParallelConcurrentHeartbeats drives the goroutine-per-shard engine
// with a heartbeat pumper racing the event feeder — Advance broadcasts
// interleave arbitrarily with Process and the end-of-stream Flush across
// shard goroutines. Run under -race this is the memory-safety check for
// the Parallel heartbeat path; the result multiset must additionally equal
// the sequential engine's (heartbeat neutrality, I9).
func TestParallelConcurrentHeartbeats(t *testing.T) {
	const k = event.Time(2_000)
	p := compile(t, shopQuery)
	events, hbs := raceStream(t, 120, k)

	seq, err := New(mustRouter(t, "id", 4), engine.Env{}, nativeFactory(p, k))
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Drain(seq, events)

	par, err := NewParallel(mustRouter(t, "id", 4), engine.Env{}, nativeFactory(p, k), nil)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan event.Event)
	hb := make(chan event.Time)
	out := make(chan plan.Match, 8)
	errCh := make(chan error, 1)
	ctx := context.Background()
	go func() { errCh <- par.RunWithHeartbeats(ctx, in, hb, out) }()

	// Feeder and heartbeat pumper run concurrently. A heartbeat hbs[i] is
	// only safe once event i has been delivered (its promise is computed
	// from the timestamps after i), so the feeder publishes its progress
	// and the pumper fires from behind that frontier — still racing the
	// delivery of later events and the end-of-stream Flush arbitrarily.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	ready := make(chan int, 16)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(in)
		defer close(ready)
		for i, e := range events {
			in <- e
			if i%5 == 0 {
				select {
				case ready <- i:
				default: // pumper lagging; skip rather than stall the feed
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := range ready {
			select {
			case hb <- hbs[i]:
			case <-stop:
				return
			}
		}
	}()

	var got []plan.Match
	for m := range out {
		got = append(got, m)
	}
	close(stop)
	wg.Wait()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("parallel+heartbeats differs from sequential (%d want, %d got):\n%s", len(want), len(got), diff)
	}
}

// TestParallelDrain covers the channel-free convenience entry against the
// sequential engine.
func TestParallelDrain(t *testing.T) {
	const k = event.Time(2_000)
	p := compile(t, shopQuery)
	events, _ := raceStream(t, 80, k)

	seq, err := New(mustRouter(t, "id", 3), engine.Env{}, nativeFactory(p, k))
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Drain(seq, events)

	par, err := NewParallel(mustRouter(t, "id", 3), engine.Env{}, nativeFactory(p, k), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Drain(context.Background(), events)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("Drain differs from sequential:\n%s", diff)
	}
}

func mustRouter(t *testing.T, attr string, n int) *Router {
	t.Helper()
	r, err := NewRouter(attr, n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
