package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/metrics"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
	"oostream/internal/ring"
)

// shardRingCap is the per-shard feed ring's capacity. Deep enough that the
// router stays ahead of a momentarily busy shard, small enough that a
// stalled shard applies backpressure quickly.
const shardRingCap = 256

// shardMaxBatch bounds how many events a shard consumer accumulates before
// it must run the engine: the run-draining consumer batches whatever is
// already queued, and this caps the resulting ProcessBatch size (and the
// latency of the first match behind it).
const shardMaxBatch = 128

// Parallel runs each shard's engine on its own goroutine, fed through a
// bounded MPSC ring instead of a per-event channel rendezvous: the router
// enqueues, and each shard consumer drains whatever run has accumulated
// into one ProcessBatch call — batching adapts to the backlog, so a slow
// shard amortizes per-call overhead exactly when it needs to. Output order
// across shards is nondeterministic but the match multiset equals the
// sequential Engine's.
type Parallel struct {
	router *Router
	parts  []engine.Engine
	// prov marks provenance enabled: each shard goroutine tags its own
	// matches' lineage records with its shard index before sending them to
	// the merge channel (single-goroutine ownership, so no race).
	prov bool
	// lat, when non-nil, stamps wall-clock stage boundaries on sampled
	// spans: Begin at ring push (router side), StageQueue at consumer
	// pop, Finish after the batch's matches reach the merge channel. The
	// slot table is atomic, so the router→consumer handoff is race-free.
	lat *obsv.LatencySampler
	// ringSeries, when set, receives per-shard backpressure gauges:
	// feed-ring occupancy and blocked/full counter deltas, published by
	// each consumer at batch boundaries.
	ringSeries []*obsv.Series
}

// NewParallel wraps per-shard engines for concurrent execution. The factory
// builds each part with that shard's own Env (a trace hook handed to the
// parts must be safe for concurrent use: shards run on separate
// goroutines). Of env the wrapper keeps the sampler — it owns the queue
// stage (ring wait) and the span open/close, the parts stamp their own
// construction stage — and the provenance switch (shard tagging).
// ringSeries, when non-nil, names the series shard i publishes its
// feed-ring occupancy (QueueDepth) and blocked-push/full-reject counters
// into — typically the series the part itself was built over.
func NewParallel(router *Router, env engine.Env, factory func(shard int) (engine.Engine, error), ringSeries func(shard int) *obsv.Series) (*Parallel, error) {
	parts, err := buildParts(router, factory)
	if err != nil {
		return nil, err
	}
	p := &Parallel{router: router, parts: parts, prov: env.Provenance, lat: env.Latency}
	if ringSeries != nil {
		p.ringSeries = make([]*obsv.Series, len(parts))
		for i := range parts {
			p.ringSeries[i] = ringSeries(i)
		}
	}
	return p, nil
}

// Metrics sums the per-shard snapshots, merging histograms exactly. It is
// safe to call while Run is processing: collectors publish through atomics,
// so a concurrent snapshot is merely a moment-in-time read (it may miss
// the event in flight on each shard).
func (p *Parallel) Metrics() metrics.Snapshot {
	return aggregate(p.parts)
}

// StateSnapshot aggregates per-shard snapshots. Like every StateSnapshot
// it is not synchronized with processing: call it only while the pipeline
// is idle (before Run, or after Run/Drain returns).
func (p *Parallel) StateSnapshot() *provenance.StateSnapshot {
	return provenance.Aggregate("parallel("+p.parts[0].Name()+")", snapshots(p.parts))
}

// shardMsg is one item on a shard's feed: an event to process or a
// heartbeat to broadcast.
type shardMsg struct {
	ev        event.Event
	heartbeat bool
	ts        event.Time
}

// Run consumes events from in until closed or cancelled, routing each to
// its shard's goroutine, and forwards all matches to out (closed before
// returning). Route errors (missing key attribute) drop the event.
func (p *Parallel) Run(ctx context.Context, in <-chan event.Event, out chan<- plan.Match) error {
	return p.RunWithHeartbeats(ctx, in, nil, out)
}

// RunWithHeartbeats is Run with an optional heartbeat channel: every
// timestamp received on hb is broadcast to all shards as an Advance call,
// interleaved with event delivery — re-synchronizing the per-shard clocks
// through stream silence exactly as the sequential Engine's Advance does.
// A heartbeat also flushes each consumer's accumulated batch first, so it
// sequences at a batch boundary and never releases matches early relative
// to events routed before it. A nil hb makes it equivalent to Run. hb is
// never closed by the caller's contract; the feed loop stops reading it
// once in closes.
func (p *Parallel) RunWithHeartbeats(ctx context.Context, in <-chan event.Event, hb <-chan event.Time, out chan<- plan.Match) error {
	return p.runLoop(ctx, out, func(ctx context.Context, push func(int, shardMsg) bool, broadcast func(shardMsg) bool) error {
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case ts := <-hb:
				if !broadcast(shardMsg{heartbeat: true, ts: ts}) {
					return ctx.Err()
				}
			case e, ok := <-in:
				if !ok {
					return nil
				}
				shard, err := p.router.Route(e)
				if err != nil {
					continue // drop: cannot belong to any partitioned match
				}
				if !push(shard, shardMsg{ev: e}) {
					return ctx.Err()
				}
			}
		}
	})
}

// RunBatches is Run for a pre-batched input stream: each received slice is
// routed event by event onto the shard rings in one pass, preserving the
// slice's arrival order per shard. The consumers re-batch per shard, so
// upstream batch boundaries don't constrain engine batch sizes.
func (p *Parallel) RunBatches(ctx context.Context, in <-chan []event.Event, out chan<- plan.Match) error {
	return p.runLoop(ctx, out, func(ctx context.Context, push func(int, shardMsg) bool, _ func(shardMsg) bool) error {
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case batch, ok := <-in:
				if !ok {
					return nil
				}
				for _, e := range batch {
					shard, err := p.router.Route(e)
					if err != nil {
						continue // drop: cannot belong to any partitioned match
					}
					if !push(shard, shardMsg{ev: e}) {
						return ctx.Err()
					}
				}
			}
		}
	})
}

// runLoop owns the shared plumbing: shard goroutines fed by MPSC rings, a
// merge channel with a forwarder, and the feeder callback supplied by the
// Run variants (its push/broadcast return false once the group is
// cancelled). Rings are closed when the feeder returns, letting consumers
// drain their backlog and Flush.
func (p *Parallel) runLoop(ctx context.Context, out chan<- plan.Match, feeder func(context.Context, func(int, shardMsg) bool, func(shardMsg) bool) error) error {
	defer close(out)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	feeds := make([]*ring.Queue[shardMsg], len(p.parts))
	merged := make(chan plan.Match, 1)
	errs := make(chan error, len(p.parts))
	var wg sync.WaitGroup
	for i, part := range p.parts {
		feeds[i] = ring.New[shardMsg](shardRingCap)
		wg.Add(1)
		go func(shard int, en engine.Engine, feed *ring.Queue[shardMsg]) {
			defer wg.Done()
			err := p.runShard(ctx, shard, en, feed, merged)
			if err != nil {
				// A dead shard stops draining its ring; cancel the group so
				// the feeder never wedges delivering to it.
				cancel()
			}
			errs <- err
		}(i, part, feeds[i])
	}
	// Closer: ends the merge loop when every shard is done.
	mergeDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(mergeDone)
	}()

	forwardErr := make(chan error, 1)
	go func() {
		defer close(forwardErr)
		for {
			select {
			case m := <-merged:
				select {
				case out <- m:
				case <-ctx.Done():
					forwardErr <- ctx.Err()
					return
				}
			case <-mergeDone:
				for {
					select {
					case m := <-merged:
						select {
						case out <- m:
						case <-ctx.Done():
							forwardErr <- ctx.Err()
							return
						}
					default:
						return
					}
				}
			}
		}
	}()

	push := func(shard int, msg shardMsg) bool {
		// The span opens before the ring push so StageQueue (stamped at
		// the consumer's pop) covers the full ring wait, backpressure
		// parking included.
		p.lat.Begin(msg.ev.Seq)
		if feeds[shard].Push(msg, ctx.Done()) {
			return true
		}
		p.lat.Abandon(msg.ev.Seq)
		return false
	}
	broadcast := func(msg shardMsg) bool {
		for _, feed := range feeds {
			if !feed.Push(msg, ctx.Done()) {
				return false
			}
		}
		return true
	}
	runErr := feeder(ctx, push, broadcast)
	for _, feed := range feeds {
		feed.Close()
	}
	// A shard failure (engine panic) cancels the group, so plain
	// cancellation errors from sibling shards must not mask the root
	// cause: prefer a non-cancellation error over context.Canceled.
	setErr := func(err error) {
		if err == nil {
			return
		}
		if runErr == nil || (errors.Is(runErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			runErr = err
		}
	}
	for range p.parts {
		setErr(<-errs)
	}
	setErr(<-forwardErr)
	return runErr
}

// guard isolates an engine call: a panic becomes an error on this shard
// instead of crashing the whole process. (A supervised part recovers its
// own panics and restarts from a checkpoint before this backstop fires.)
func guard(f func() []plan.Match) (out []plan.Match, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine panic: %v", r)
		}
	}()
	return f(), nil
}

// runShard is one shard's consumer: it blocks for the next message, then
// sweeps whatever else is already queued, accumulating contiguous events
// into a batch that runs through the engine's batch path in one call.
// Heartbeats flush the accumulated batch before advancing, so they take
// effect exactly at a batch boundary (events routed before the heartbeat
// are fully processed first; matches are never released early).
func (p *Parallel) runShard(ctx context.Context, shard int, en engine.Engine, feed *ring.Queue[shardMsg], merged chan<- plan.Match) error {
	send := func(matches []plan.Match, err error) error {
		if err != nil {
			return fmt.Errorf("shard %d: %w", shard, err)
		}
		if p.prov {
			tagShard(matches, shard)
		}
		for _, m := range matches {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case merged <- m:
			}
		}
		return nil
	}
	var series *obsv.Series
	if p.ringSeries != nil {
		series = p.ringSeries[shard]
	}
	var lastStats ring.Stats
	publishRing := func() {
		if series == nil {
			return
		}
		st := feed.Stats()
		series.QueueDepth.Set(int64(st.Len))
		series.BlockedPushes.Add(st.BlockedPushes - lastStats.BlockedPushes)
		series.FullRejects.Add(st.FullRejects - lastStats.FullRejects)
		lastStats = st
	}
	batch := make([]event.Event, 0, shardMaxBatch)
	flushBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := send(guard(func() []plan.Match { return en.ProcessBatch(batch) }))
		// Spans close only after the batch's matches reached the merge
		// channel: the emit stage covers merge-send backpressure. A
		// buffering part (kslack) holds its spans, making these no-ops.
		for i := range batch {
			p.lat.Finish(batch[i].Seq)
		}
		batch = batch[:0]
		publishRing()
		return err
	}
	for {
		msg, ok := feed.PopWait(ctx.Done())
		if !ok {
			if err := ctx.Err(); err != nil {
				return err
			}
			// Ring closed and drained: end of stream.
			if err := flushBatch(); err != nil {
				return err
			}
			publishRing()
			return send(guard(en.Flush))
		}
		for {
			if msg.heartbeat {
				if err := flushBatch(); err != nil {
					return err
				}
				if err := send(guard(func() []plan.Match { return en.Advance(msg.ts) })); err != nil {
					return err
				}
			} else {
				// The pop ends the event's ring wait.
				p.lat.StageEnd(msg.ev.Seq, obsv.StageQueue)
				batch = append(batch, msg.ev)
				if len(batch) >= shardMaxBatch {
					if err := flushBatch(); err != nil {
						return err
					}
				}
			}
			msg, ok = feed.TryPop()
			if !ok {
				break
			}
		}
		// The ring is momentarily empty: run what accumulated rather than
		// waiting for more (batching adapts to backlog, idle streams keep
		// per-event latency).
		if err := flushBatch(); err != nil {
			return err
		}
	}
}

// Drain runs a finite event slice through the parallel engine and returns
// the complete match multiset (Process results plus the end-of-stream
// Flush). It is the channel-free convenience entry used by tests and the
// differential harness; output order across shards is nondeterministic.
func (p *Parallel) Drain(ctx context.Context, events []event.Event) ([]plan.Match, error) {
	in := make(chan event.Event)
	out := make(chan plan.Match, 16)
	errCh := make(chan error, 1)
	go func() { errCh <- p.Run(ctx, in, out) }()
	go func() {
		defer close(in)
		for _, e := range events {
			select {
			case in <- e:
			case <-ctx.Done():
				return
			}
		}
	}()
	var matches []plan.Match
	for m := range out {
		matches = append(matches, m)
	}
	if err := <-errCh; err != nil {
		return nil, err
	}
	return matches, nil
}

// DrainBatches is Drain over the batched entry: the finite event slice is
// delivered in batchSize chunks through RunBatches (batchSize <= 0 sends
// one whole-stream batch) and the complete match multiset returned.
func (p *Parallel) DrainBatches(ctx context.Context, events []event.Event, batchSize int) ([]plan.Match, error) {
	if batchSize <= 0 {
		batchSize = len(events)
		if batchSize == 0 {
			batchSize = 1
		}
	}
	in := make(chan []event.Event)
	out := make(chan plan.Match, 16)
	errCh := make(chan error, 1)
	go func() { errCh <- p.RunBatches(ctx, in, out) }()
	go func() {
		defer close(in)
		for start := 0; start < len(events); start += batchSize {
			end := start + batchSize
			if end > len(events) {
				end = len(events)
			}
			select {
			case in <- events[start:end]:
			case <-ctx.Done():
				return
			}
		}
	}()
	var matches []plan.Match
	for m := range out {
		matches = append(matches, m)
	}
	if err := <-errCh; err != nil {
		return nil, err
	}
	return matches, nil
}
