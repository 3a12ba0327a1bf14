package runtime

import (
	"context"
	"errors"
	"time"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/plan"
)

// HeartbeatPipeline drives an engine like Pipeline, additionally injecting
// punctuation when the input goes quiet: if no event arrives for Every of
// wall time, Clock() is read and passed to the engine's Advance, sealing
// pending negation output and purging state. Deployments map wall time to
// stream time in Clock (for a stream stamped with real epochs, Clock is
// simply time.Now translated to logical milliseconds).
type HeartbeatPipeline struct {
	engine engine.Engine
	// Every is the idle interval between heartbeats.
	Every time.Duration
	// Clock supplies the punctuation timestamp for an idle heartbeat.
	Clock func() event.Time
}

// NewHeartbeatPipeline wraps an engine. every must be positive and clock
// non-nil.
func NewHeartbeatPipeline(en engine.Engine, every time.Duration, clock func() event.Time) *HeartbeatPipeline {
	return &HeartbeatPipeline{engine: en, Every: every, Clock: clock}
}

// Run consumes events from in until closed or cancelled, forwarding
// matches to out (closed before returning) and heartbeating on idle.
//
// Cancellation is prompt even mid-heartbeat or with out blocked: every
// send selects on ctx, and the idle timer is owned by this goroutine and
// stopped before Run returns — nothing leaks.
func (p *HeartbeatPipeline) Run(ctx context.Context, in <-chan event.Event, out chan<- plan.Match) error {
	defer close(out)
	if p.Every <= 0 {
		return errors.New("heartbeat: Every must be positive (a zero interval busy-loops the idle timer)")
	}
	if p.Clock == nil {
		return errors.New("heartbeat: Clock is required")
	}
	timer := time.NewTimer(p.Every)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			if err := emitAll(ctx, p.engine.Advance(p.Clock()), out); err != nil {
				return err
			}
			timer.Reset(p.Every)
		case e, ok := <-in:
			if !ok {
				return emitAll(ctx, p.engine.Flush(), out)
			}
			if err := emitAll(ctx, p.engine.Process(e), out); err != nil {
				return err
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(p.Every)
		}
	}
}
