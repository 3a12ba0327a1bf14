// Package runtime provides the concurrent plumbing around the (inherently
// single-threaded) pattern engines: channel-based pipelines with clean
// shutdown, and multi-query fan-out where one input stream drives several
// engines on their own goroutines.
//
// Following the project's concurrency rules: every goroutine started here
// is owned by a Pipeline/Fanout object, is stoppable through the context,
// and is waited for before Run returns. Channels are unbuffered or size 1.
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

// Tagged is a match labelled with the engine that produced it.
type Tagged struct {
	// Engine is the producing engine's name.
	Engine string
	// Match is the emitted match.
	Match plan.Match
}

// Fanout broadcasts one event stream to several engines, each running on
// its own goroutine, and merges their matches.
type Fanout struct {
	engines []engine.Engine
}

// NewFanout wraps the engines. Engine names should be distinct if the
// consumer needs to attribute matches.
func NewFanout(engines ...engine.Engine) *Fanout {
	return &Fanout{engines: engines}
}

// Run consumes in until closed or cancelled, feeding every engine, and
// sends all matches to out (closing it before returning). Each engine runs
// on its own goroutine with a one-slot feed channel, so a slow engine
// backpressures the broadcast rather than being skipped.
func (f *Fanout) Run(ctx context.Context, in <-chan event.Event, out chan<- Tagged) error {
	defer close(out)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	feeds := make([]chan event.Event, len(f.engines))
	errs := make(chan error, len(f.engines))
	merged := make(chan Tagged, 1)
	done := make(chan struct{})

	workers := 0
	for i, en := range f.engines {
		feeds[i] = make(chan event.Event, 1)
		workers++
		go func(en engine.Engine, feed <-chan event.Event) {
			errs <- runEngine(ctx, en, feed, merged)
		}(en, feeds[i])
	}

	// Forwarder: moves merged matches to out until all workers finish.
	forwardErr := make(chan error, 1)
	go func() {
		defer close(forwardErr)
		for {
			select {
			case <-done:
				// Drain anything still buffered.
				for {
					select {
					case t := <-merged:
						select {
						case out <- t:
						case <-ctx.Done():
							forwardErr <- ctx.Err()
							return
						}
					default:
						return
					}
				}
			case t := <-merged:
				select {
				case out <- t:
				case <-ctx.Done():
					forwardErr <- ctx.Err()
					return
				}
			}
		}
	}()

	var runErr error
broadcast:
	for {
		select {
		case <-ctx.Done():
			runErr = ctx.Err()
			break broadcast
		case e, ok := <-in:
			if !ok {
				break broadcast
			}
			for _, feed := range feeds {
				select {
				case <-ctx.Done():
					runErr = ctx.Err()
					break broadcast
				case feed <- e:
				}
			}
		}
	}
	for _, feed := range feeds {
		close(feed)
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil && runErr == nil {
			runErr = err
		}
	}
	close(done)
	if err := <-forwardErr; err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

func runEngine(ctx context.Context, en engine.Engine, feed <-chan event.Event, merged chan<- Tagged) error {
	send := func(matches []plan.Match) error {
		for _, m := range matches {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case merged <- Tagged{Engine: en.Name(), Match: m}:
			}
		}
		return nil
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case e, ok := <-feed:
			if !ok {
				return send(en.Flush())
			}
			if err := send(en.Process(e)); err != nil {
				return err
			}
		}
	}
}

// FeedSlice pushes a finite event slice into a channel, respecting ctx, and
// closes it. Intended to be run on its own goroutine by callers.
func FeedSlice(ctx context.Context, events []event.Event, out chan<- event.Event) error {
	defer close(out)
	for _, e := range events {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case out <- e:
		}
	}
	return nil
}
