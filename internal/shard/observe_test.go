package shard

import (
	"context"
	"sync"
	"testing"

	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

// newNativeParts returns a router and a factory building native parts, each
// with env (the parts' own Env: a Parallel or Engine forwards nothing).
func newNativeParts(t *testing.T, shards int, env engine.Env) (*Router, func(int) (engine.Engine, error)) {
	t.Helper()
	p, err := plan.ParseAndCompile(
		"PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s", gen.RFIDSchema())
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter("id", shards)
	if err != nil {
		t.Fatal(err)
	}
	return router, func(int) (engine.Engine, error) {
		return core.New(p, core.Options{K: 2000, Env: env})
	}
}

// TestParallelMetricsDuringProcess reads aggregated metrics from another
// goroutine while the shard goroutines are mid-stream. The collector is
// built on atomics, so this must be clean under -race.
func TestParallelMetricsDuringProcess(t *testing.T) {
	router, factory := newNativeParts(t, 4, engine.Env{})
	par, err := NewParallel(router, engine.Env{}, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := gen.RFID(gen.DefaultRFID(800, 7))
	events = gen.Shuffle(events, gen.Disorder{Ratio: 0.3, MaxDelay: 2000, Seed: 7})

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = par.Metrics()
			}
		}
	}()
	got, err := par.Drain(context.Background(), events)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("expected matches from the drained stream")
	}
	snap := par.Metrics()
	// EventsIn counts relevant ingests; irrelevant events are tallied
	// separately. Together they must cover the whole stream.
	if snap.EventsIn+snap.Irrelevant != uint64(len(events)) {
		t.Fatalf("EventsIn+Irrelevant = %d+%d, want %d", snap.EventsIn, snap.Irrelevant, len(events))
	}
	if snap.Matches == 0 {
		t.Fatal("aggregated snapshot lost the match count")
	}
}
