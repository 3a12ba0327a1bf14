package shard

import (
	"context"
	"sync"
	"testing"

	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/kslack"
)

// TestParallelSharedControllerSetKRace runs a partitioned engine whose
// shards are kslack followers of ONE shared controller, while a resizer
// goroutine hammers SetK and a reader polls the published bounds. Under
// -race this pins the multi-reader contract: every shard re-reads
// EffectiveK on its own goroutine at every push, concurrently with the
// external writer. Output correctness is not asserted (resizes mid-stream
// change admission); the run must simply complete clean.
func TestParallelSharedControllerSetKRace(t *testing.T) {
	const k = event.Time(2_000)
	p := compile(t, shopQuery)
	events, _ := raceStream(t, 400, k)

	ctrl := adaptive.MustController(adaptive.Config{InitialK: k})
	par, err := NewParallel(mustRouter(t, "id", 4), engine.Env{}, func(int) (engine.Engine, error) {
		return kslack.NewAdaptiveEngine(ctrl, false, core.MustNew(p, core.Options{}), engine.Env{}), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		i := event.Time(0)
		for {
			select {
			case <-done:
				return
			default:
			}
			ctrl.SetK(1 + i%k)
			i++
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = ctrl.EffectiveK()
			_ = ctrl.NominalK()
			_ = ctrl.MaxKObserved()
			_ = ctrl.Degraded()
			_ = ctrl.Snapshot()
		}
	}()

	if _, err := par.Drain(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if got := par.Metrics().EventsIn; got != uint64(len(events)) {
		t.Fatalf("EventsIn = %d, want %d", got, len(events))
	}
}
