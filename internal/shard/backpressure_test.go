package shard

import (
	"context"
	"fmt"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/gen"
	"oostream/internal/obsv"
)

// TestParallelShardQueueGauges binds per-shard backpressure series and
// checks every consumer published its feed-ring stats: occupancy peaked at
// least once while the stream was in flight and settled to zero at drain,
// with blocked/full counters carried over as deltas.
func TestParallelShardQueueGauges(t *testing.T) {
	const shards = 3
	router, factory := newNativeParts(t, shards, engine.Env{})
	reg := obsv.NewRegistry()
	par, err := NewParallel(router, engine.Env{}, factory, func(i int) *obsv.Series {
		return reg.Series(fmt.Sprintf("native/shard%d", i))
	})
	if err != nil {
		t.Fatal(err)
	}

	events := gen.RFID(gen.DefaultRFID(800, 13))
	events = gen.Shuffle(events, gen.Disorder{Ratio: 0.3, MaxDelay: 2000, Seed: 13})
	if _, err := par.Drain(context.Background(), events); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < shards; i++ {
		s := reg.Series(fmt.Sprintf("native/shard%d", i))
		if s.QueueDepth.Load() != 0 {
			t.Errorf("shard %d: queue depth %d after drain, want 0", i, s.QueueDepth.Load())
		}
		if s.QueueDepth.Peak() == 0 {
			t.Errorf("shard %d: queue-depth peak never rose above 0", i)
		}
	}
}

// TestParallelSamplerSpansAccounted runs the parallel composition with a
// dense sampler and checks the span ledger balances: every opened span is
// either completed (wall observations) or abandoned, none leak, and the
// queue stage was actually attributed by the consumers.
func TestParallelSamplerSpansAccounted(t *testing.T) {
	series := obsv.NewSeries("latency")
	ls := obsv.NewLatencySampler(2, series, nil)
	env := engine.Env{Latency: ls}
	router, factory := newNativeParts(t, 3, env)
	par, err := NewParallel(router, env, factory, nil)
	if err != nil {
		t.Fatal(err)
	}

	events := gen.RFID(gen.DefaultRFID(600, 17))
	events = gen.Shuffle(events, gen.Disorder{Ratio: 0.2, MaxDelay: 2000, Seed: 17})
	if _, err := par.Drain(context.Background(), events); err != nil {
		t.Fatal(err)
	}

	r := ls.Report()
	if r.SpansSampled == 0 {
		t.Fatal("no spans sampled at 1-in-2")
	}
	if got := r.Wall.Count + r.SpansAbandoned; got != r.SpansSampled {
		t.Fatalf("span ledger: %d completed + %d abandoned != %d sampled",
			r.Wall.Count, r.SpansAbandoned, r.SpansSampled)
	}
	if r.Stages["queue"].Count == 0 {
		t.Fatalf("consumers never attributed ring wait: %+v", r.Stages)
	}
}
