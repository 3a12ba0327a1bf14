package kslack

import (
	"math/rand"
	"sync"
	"testing"

	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/plan"
)

// TestConcurrentSetKDuringProcess hammers Controller.SetK from a resizer
// goroutine while the owning engine processes a disordered stream. Run
// under -race this pins the controller's contract: external resizes are
// atomic publishes that never tear against the engine's per-push
// EffectiveK reads. Correctness of the output is NOT asserted — an
// external resize mid-stream legitimately changes what is late — only
// race-freedom and basic sanity (the engine never deadlocks or panics).
func TestConcurrentSetKDuringProcess(t *testing.T) {
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, B b) WITHIN 40", nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	events := shuffleBounded(rng, sortedStream(rng, 4_000, []string{"A", "B"}), 30)

	ctrl := adaptive.MustController(adaptive.Config{}, 30)
	en := NewAdaptiveEngine(ctrl, core.MustNew(p, core.Options{}), engine.Env{})

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		k := event.Time(1)
		for {
			select {
			case <-done:
				return
			default:
			}
			ctrl.SetK(1 + k%60)
			k++
		}
	}()

	for i, e := range events {
		if i%64 == 0 {
			en.ProcessBatch(events[i : i+1])
		} else {
			en.Process(e)
		}
		// Interleave reader-side accessors the way an introspection
		// endpoint would.
		if i%128 == 0 {
			_ = ctrl.EffectiveK()
			_ = ctrl.Snapshot()
			_ = en.StateSnapshot()
		}
	}
	en.Flush()
	close(done)
	wg.Wait()

	if got := en.Metrics().EventsIn; got == 0 {
		t.Fatal("engine processed nothing")
	}
	if ctrl.MaxKObserved() < 1 {
		t.Fatalf("MaxKObserved = %d, want ≥ 1", ctrl.MaxKObserved())
	}
}
