package core

import (
	"testing"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

// fanout is the repository benchmark's uniform-fanout-native workload on its
// own, at a tenth of its size: the same query, K, generator and disorder.
func fanout(tb testing.TB) (*plan.Plan, []event.Event, event.Time) {
	tb.Helper()
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, B b, C c) WITHIN 200", nil)
	if err != nil {
		tb.Fatal(err)
	}
	const k = 200
	stream := gen.Uniform(4000, []string{"A", "B", "C"}, 8, 15, 1)
	return p, gen.Shuffle(stream, gen.Disorder{Ratio: 0.5, MaxDelay: k, Seed: 2}), k
}

// TestEmissionAllocations gates what a result costs the kernel: on a warm
// native engine fed the fanout stream (about 2.8 matches an event), the
// allocations per emitted match stay at or below 0.1. Matches and the events
// of a match sealed at emission are carved from append-only blocks
// (plan.Blocks); a fresh events slice per match and a result slice grown
// from nil per call cost about 1.6 allocations a match. A kernel that lends
// its output (Env.Borrowed, beneath the window operator) carves every call
// from the same blocks and, once warm, allocates none.
func TestEmissionAllocations(t *testing.T) {
	p, stream, k := fanout(t)
	for _, borrowed := range []bool{false, true} {
		en := MustNew(p, Options{K: k, Env: engine.Env{Borrowed: borrowed}})
		half := len(stream) / 2
		for _, e := range stream[:half] {
			en.Process(e)
		}
		const runs = 20
		chunk := (len(stream) - half) / (runs + 1)
		next, matches, calls := half, 0, 0
		allocs := testing.AllocsPerRun(runs, func() {
			n := 0
			for _, e := range stream[next : next+chunk] {
				n += len(en.Process(e))
			}
			next += chunk
			if calls++; calls > 1 { // the first call warms up, uncounted
				matches += n
			}
		})
		if matches < runs*chunk {
			t.Fatalf("%d matches from %d events: the stream is meant to fan out", matches, runs*chunk)
		}
		perMatch := allocs * runs / float64(matches)
		t.Logf("borrowed %v: %.1f allocations per %d-event run, %.3f per match (%d matches)", borrowed, allocs, chunk, perMatch, matches)
		want := 0.1
		if borrowed {
			want = 0
		}
		if perMatch > want {
			t.Errorf("borrowed %v: %.3f allocations per emitted match, want at most %g", borrowed, perMatch, want)
		}
	}
}
