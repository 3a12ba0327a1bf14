// Package runtime provides the plumbing around the (inherently
// single-threaded) pattern engines: Pipeline, the channel-to-channel loop
// behind Engine.Run, and Supervisor, the write-ahead-logged, checkpointed
// engine a durable Engine or QuerySet drives.
//
// Nothing here starts a goroutine: Pipeline.Run and RunBatched work on the
// caller's, stop when the context does (every send selects on it), and
// close their output channel before returning.
package runtime

import (
	"context"
	"time"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
)

// Pipeline drives one engine from an event channel to a match channel.
type Pipeline struct {
	engine engine.Engine
	// lat, when non-nil, opens spans at channel receive and closes them
	// after the event's matches are sent downstream, so the emit stage
	// covers output-channel backpressure.
	lat *obsv.LatencySampler
}

// NewPipeline wraps an engine. Of env the pipeline keeps the latency
// sampler (nil for none).
func NewPipeline(en engine.Engine, env engine.Env) *Pipeline {
	return &Pipeline{engine: en, lat: env.Latency}
}

// Run consumes events from in until it is closed or ctx is cancelled,
// forwarding matches to out. On normal end-of-stream the engine is flushed
// and its final matches forwarded. Run closes out before returning and
// returns ctx.Err() when cancelled early, nil otherwise.
func (p *Pipeline) Run(ctx context.Context, in <-chan event.Event, out chan<- plan.Match) error {
	defer close(out)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case e, ok := <-in:
			if !ok {
				return emitAll(ctx, p.engine.Flush(), out)
			}
			p.lat.Begin(e.Seq)
			if err := emitAll(ctx, p.engine.Process(e), out); err != nil {
				return err
			}
			p.lat.Finish(e.Seq)
		}
	}
}

// RunBatched is Run over the engine's batch path: it blocks for the first
// event of a batch, then fills greedily up to size — without waiting when
// linger is zero (whatever is queued on in forms the batch), or waiting up
// to linger for stragglers otherwise — and hands the batch to the engine's
// ProcessBatch in one call. Output is identical to Run by the ProcessBatch
// contract; only throughput and latency change. size <= 1 falls back to
// Run.
func (p *Pipeline) RunBatched(ctx context.Context, in <-chan event.Event, out chan<- plan.Match, size int, linger time.Duration) error {
	if size <= 1 {
		return p.Run(ctx, in, out)
	}
	defer close(out)
	batch := make([]event.Event, 0, size)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		for i := range batch {
			// Time from channel receive to dispatch is batching linger:
			// the event sat in the batch waiting for stragglers.
			p.lat.StageEnd(batch[i].Seq, obsv.StageQueue)
		}
		err := emitAll(ctx, p.engine.ProcessBatch(batch), out)
		for i := range batch {
			p.lat.Finish(batch[i].Seq)
		}
		batch = batch[:0]
		return err
	}
	finish := func() error {
		if err := flush(); err != nil {
			return err
		}
		return emitAll(ctx, p.engine.Flush(), out)
	}
	var timer *time.Timer
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case e, ok := <-in:
			if !ok {
				return finish()
			}
			p.lat.Begin(e.Seq)
			batch = append(batch, e)
		}
		var deadline <-chan time.Time
		if linger > 0 {
			if timer == nil {
				timer = time.NewTimer(linger)
			} else {
				timer.Reset(linger)
			}
			deadline = timer.C
		}
	fill:
		for len(batch) < size {
			if linger > 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case e, ok := <-in:
					if !ok {
						return finish()
					}
					p.lat.Begin(e.Seq)
					batch = append(batch, e)
				case <-deadline:
					deadline = nil // fired and drained; don't re-stop below
					break fill
				}
			} else {
				select {
				case e, ok := <-in:
					if !ok {
						return finish()
					}
					p.lat.Begin(e.Seq)
					batch = append(batch, e)
				default:
					break fill
				}
			}
		}
		if deadline != nil && !timer.Stop() {
			<-timer.C
		}
		if err := flush(); err != nil {
			return err
		}
	}
}

func emitAll(ctx context.Context, matches []plan.Match, out chan<- plan.Match) error {
	for _, m := range matches {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case out <- m:
		}
	}
	return nil
}
