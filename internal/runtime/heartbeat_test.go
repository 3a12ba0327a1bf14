package runtime

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"oostream/internal/core"
	"oostream/internal/event"
	"oostream/internal/plan"
)

// TestHeartbeatSealsIdleNegation: a pending negation match must surface
// through idle-time punctuation, with no further events on the stream.
func TestHeartbeatSealsIdleNegation(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	en := core.MustNew(p, core.Options{K: 50})

	var logical atomic.Int64
	logical.Store(40)
	hb := NewHeartbeatPipeline(en, 5*time.Millisecond, func() event.Time {
		return event.Time(logical.Load())
	})

	in := make(chan event.Event)
	out := make(chan plan.Match, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- hb.Run(ctx, in, out) }()

	in <- event.Event{Type: "A", TS: 10, Seq: 1}
	in <- event.Event{Type: "B", TS: 30, Seq: 2}
	// Nothing yet: the gap (10,30) is unsealed at safe clock -10.
	select {
	case m := <-out:
		t.Fatalf("premature emission: %v", m)
	case <-time.After(30 * time.Millisecond):
	}
	// Advance stream time past seal (30+K=80): the idle heartbeat should
	// deliver the match without any event.
	logical.Store(90)
	select {
	case m := <-out:
		if m.Key() != "1|2" {
			t.Fatalf("wrong match: %v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeat never sealed the match")
	}
	close(in)
	for range out {
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatPipelineFlushOnClose(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, !(N n)) WITHIN 100")
	en := core.MustNew(p, core.Options{K: 50})
	hb := NewHeartbeatPipeline(en, time.Hour, func() event.Time { return 0 })
	in := make(chan event.Event)
	out := make(chan plan.Match, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- hb.Run(context.Background(), in, out) }()
	in <- event.Event{Type: "A", TS: 10, Seq: 1}
	in <- event.Event{Type: "B", TS: 20, Seq: 2}
	close(in)
	var got []plan.Match
	for m := range out {
		got = append(got, m)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("flush through heartbeat pipeline: %v", got)
	}
}

// TestHeartbeatCancelWhileOutBlocked: the consumer stops reading out while
// the pipeline has matches to deliver; cancellation must still return Run
// promptly instead of deadlocking on the send.
func TestHeartbeatCancelWhileOutBlocked(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	en := core.MustNew(p, core.Options{K: 0})
	hb := NewHeartbeatPipeline(en, time.Hour, func() event.Time { return 0 })
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan event.Event)
	out := make(chan plan.Match) // unbuffered and never read
	errCh := make(chan error, 1)
	go func() { errCh <- hb.Run(ctx, in, out) }()
	in <- event.Event{Type: "A", TS: 10, Seq: 1}
	in <- event.Event{Type: "B", TS: 20, Seq: 2} // K=0: seals the match; Run now blocks sending it
	time.Sleep(10 * time.Millisecond)            // let Run reach the blocked send
	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run wedged on the blocked match send")
	}
}

// TestHeartbeatCancelMidHeartbeat: cancellation while an idle heartbeat is
// emitting into a blocked out channel returns promptly and leaks no
// goroutine.
func TestHeartbeatCancelMidHeartbeat(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	en := core.MustNew(p, core.Options{K: 50})
	before := runtime.NumGoroutine()
	hb := NewHeartbeatPipeline(en, time.Millisecond, func() event.Time { return 200 })
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan event.Event)
	out := make(chan plan.Match) // never read: the heartbeat's emission blocks
	errCh := make(chan error, 1)
	go func() { errCh <- hb.Run(ctx, in, out) }()
	// Feed a pending negation match, then go idle so the heartbeat (clock
	// 200 seals everything) finds it and blocks emitting it.
	in <- event.Event{Type: "A", TS: 10, Seq: 1}
	in <- event.Event{Type: "B", TS: 30, Seq: 2}
	time.Sleep(20 * time.Millisecond) // heartbeat fires and blocks on out
	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run wedged mid-heartbeat")
	}
	// The runner goroutine exited and the timer was stopped: goroutine
	// count settles back to the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d -> %d", before, now)
	}
}

// TestHeartbeatValidation: misconfiguration fails fast with a clear error
// instead of busy-looping or panicking mid-stream.
func TestHeartbeatValidation(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	run := func(hb *HeartbeatPipeline) error {
		in := make(chan event.Event)
		close(in)
		out := make(chan plan.Match, 1)
		return hb.Run(context.Background(), in, out)
	}
	if err := run(&HeartbeatPipeline{engine: core.MustNew(p, core.Options{K: 0})}); err == nil {
		t.Error("zero Every accepted")
	}
	hb := &HeartbeatPipeline{engine: core.MustNew(p, core.Options{K: 0}), Every: time.Second}
	if err := run(hb); err == nil {
		t.Error("nil Clock accepted")
	}
}

func TestHeartbeatPipelineCancel(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100")
	en := core.MustNew(p, core.Options{K: 50})
	hb := NewHeartbeatPipeline(en, time.Millisecond, func() event.Time { return 0 })
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan event.Event)
	out := make(chan plan.Match)
	errCh := make(chan error, 1)
	go func() { errCh <- hb.Run(ctx, in, out) }()
	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no shutdown")
	}
}
