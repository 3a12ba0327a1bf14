package shard

import (
	"sync"
	"testing"

	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

// newNativeParts returns a router and a factory building native parts, each
// with env (the parts' own Env: an Engine forwards nothing).
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

// TestShardMetricsDuringProcess reads aggregated metrics from another
// goroutine while the sequential engine is mid-stream, which is what a
// /metrics scrape of a partitioned esprun does. Every part's collector
// publishes through atomics, so this must be clean under -race.
func TestShardMetricsDuringProcess(t *testing.T) {
	router, factory := newNativeParts(t, 4, engine.Env{})
	en, err := New(router, engine.Env{}, factory)
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
				_ = en.Metrics()
			}
		}
	}()
	var got []plan.Match
	for start := 0; start < len(events); start += 64 {
		got = append(got, en.ProcessBatch(events[start:min(start+64, len(events))])...)
	}
	got = append(got, en.Flush()...)
	close(done)
	wg.Wait()
	if len(got) == 0 {
		t.Fatal("expected matches from the stream")
	}
	snap := en.Metrics()
	// EventsIn counts relevant ingests; irrelevant events are tallied
	// separately. Together they must cover the whole stream.
	if snap.EventsIn+snap.Irrelevant != uint64(len(events)) {
		t.Fatalf("EventsIn+Irrelevant = %d+%d, want %d", snap.EventsIn, snap.Irrelevant, len(events))
	}
	if snap.Matches == 0 {
		t.Fatal("aggregated snapshot lost the match count")
	}
}
