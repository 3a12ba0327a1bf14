// Package runtime provides the plumbing around the (inherently
// single-threaded) pattern engines: Pipeline, the channel-to-channel loop
// behind Engine.Run, and Supervisor, the write-ahead-logged, checkpointed
// engine a durable Engine or QuerySet drives.
//
// Nothing here starts a goroutine: Pipeline.Run works on the caller's,
// stops when the context does (every send selects on it), and closes its
// output channel before returning.
package runtime

import (
	"context"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/plan"
)

// Pipeline drives one engine from an event channel to a match channel.
type Pipeline struct {
	engine engine.Engine
	// tap's sampler opens spans at channel receive and closes them after
	// the event's matches are sent downstream, so the emit stage covers
	// output-channel backpressure.
	tap engine.Tap
}

// NewPipeline wraps an engine. Of env the pipeline uses the latency
// sampler (nil for none).
func NewPipeline(en engine.Engine, env engine.Env) *Pipeline {
	return &Pipeline{engine: en, tap: env.Publish("pipeline")}
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
			p.tap.Spans.Begin(e.Seq)
			if err := emitAll(ctx, p.engine.Process(e), out); err != nil {
				return err
			}
			p.tap.Spans.Finish(e.Seq)
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
