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
	"oostream/internal/inorder"
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

func TestPipelineEndToEnd(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	sorted := gen.Uniform(200, []string{"A", "B"}, 3, 5, 1)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 50, Seed: 2})

	want := engine.Drain(core.MustNew(p, core.Options{K: 50}), shuffled)

	in := make(chan event.Event)
	out := make(chan plan.Match, 1)
	pl := NewPipeline(core.MustNew(p, core.Options{K: 50}), engine.Env{})

	ctx := context.Background()
	feedErr := make(chan error, 1)
	go func() { feedErr <- FeedSlice(ctx, shuffled, in) }()

	var got []plan.Match
	runErr := make(chan error, 1)
	go func() { runErr <- pl.Run(ctx, in, out) }()
	for m := range out {
		got = append(got, m)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := <-feedErr; err != nil {
		t.Fatalf("FeedSlice: %v", err)
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

func TestFanoutAllEnginesSeeAllEvents(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	sorted := gen.Uniform(150, []string{"A", "B"}, 3, 5, 4)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 40, Seed: 5})

	native := core.MustNew(p, core.Options{K: 40})
	naive := inorder.New(p)
	f := NewFanout(native, naive)

	in := make(chan event.Event)
	out := make(chan Tagged, 1)
	ctx := context.Background()
	go func() { _ = FeedSlice(ctx, shuffled, in) }()

	byEngine := map[string][]plan.Match{}
	errCh := make(chan error, 1)
	go func() { errCh <- f.Run(ctx, in, out) }()
	for tg := range out {
		byEngine[tg.Engine] = append(byEngine[tg.Engine], tg.Match)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Run: %v", err)
	}

	wantNative := engine.Drain(core.MustNew(p, core.Options{K: 40}), shuffled)
	if ok, diff := plan.SameResults(wantNative, byEngine["native"]); !ok {
		t.Fatalf("native through fanout differs:\n%s", diff)
	}
	wantNaive := engine.Drain(inorder.New(p), shuffled)
	if ok, diff := plan.SameResults(wantNaive, byEngine["inorder"]); !ok {
		t.Fatalf("inorder through fanout differs:\n%s", diff)
	}
	if native.Metrics().EventsIn == 0 || naive.Metrics().EventsIn == 0 {
		t.Fatal("engines did not see events")
	}
}

func TestFanoutCancellation(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	f := NewFanout(core.MustNew(p, core.Options{K: 10}), inorder.New(p))
	in := make(chan event.Event)
	out := make(chan Tagged)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- f.Run(ctx, in, out) }()
	in <- event.Event{Type: "A", TS: 1, Seq: 1}
	cancel()
	// Consumer keeps draining so the fanout can exit.
	go func() {
		for range out {
		}
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fanout did not stop on cancel")
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
	go func() { _ = FeedSlice(ctx, events, in) }()
	pl := NewPipeline(core.MustNew(p, core.Options{K: 10}), engine.Env{})
	errCh := make(chan error, 1)
	go func() { errCh <- pl.Run(ctx, in, out) }()
	for range out {
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}
