package runtime

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

func compile(t *testing.T, src string) *plan.Plan {
	t.Helper()
	p, err := plan.ParseAndCompile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// feed sends a finite slice into in and closes it.
func feed(events []event.Event, in chan<- event.Event) {
	defer close(in)
	for _, e := range events {
		in <- e
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	sorted := gen.Uniform(200, []string{"A", "B"}, 3, 5, 1)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 50, Seed: 2})

	want := engine.Drain(core.MustNew(p, core.Options{K: 50}), shuffled)

	in := make(chan event.Event)
	out := make(chan plan.Match, 1)
	pl := NewPipeline(core.MustNew(p, core.Options{K: 50}), engine.Env{})

	ctx := context.Background()
	go feed(shuffled, in)

	var got []plan.Match
	runErr := make(chan error, 1)
	go func() { runErr <- pl.Run(ctx, in, out) }()
	for m := range out {
		got = append(got, m)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("pipeline output differs:\n%s", diff)
	}
}

func TestPipelineCancellation(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	in := make(chan event.Event)
	out := make(chan plan.Match)
	pl := NewPipeline(core.MustNew(p, core.Options{K: 10}), engine.Env{})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- pl.Run(ctx, in, out) }()
	in <- event.Event{Type: "A", TS: 1, Seq: 1}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pipeline did not stop on cancel")
	}
	// out must be closed.
	if _, ok := <-out; ok {
		t.Fatal("out not closed (got a value)")
	}
}

func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		TestPipelineEndToEndHelper(t)
	}
	// Give straggler goroutines a moment to exit.
	time.Sleep(50 * time.Millisecond)
	after := runtime.NumGoroutine()
	if after > before+3 {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
}

// TestPipelineEndToEndHelper is a non-test helper wrapper used by the leak
// check (name keeps the linter happy about test helpers calling t.Fatal).
func TestPipelineEndToEndHelper(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	events := gen.Uniform(50, []string{"A", "B"}, 2, 5, 7)
	in := make(chan event.Event)
	out := make(chan plan.Match, 1)
	ctx := context.Background()
	go feed(events, in)
	pl := NewPipeline(core.MustNew(p, core.Options{K: 10}), engine.Env{})
	errCh := make(chan error, 1)
	go func() { errCh <- pl.Run(ctx, in, out) }()
	for range out {
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}
