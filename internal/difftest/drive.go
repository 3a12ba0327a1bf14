package difftest

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"

	"oostream"
	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/hybrid"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
	"oostream/internal/recovery"
)

// truth is the want of a composition held to the oracle.
const truth = "truth"

// A composition says what to build, how to feed it the case, and what its
// output must equal. Positions count chunks: at position i drive acts
// before offering chunk i, at len(chunks) before Flush.
type composition struct {
	name string
	// What to build: a facade engine over registry query `query`, a QuerySet
	// registering `queries`, or the hybrid meta-engine for forced switches.
	cfg     *oostream.Config
	set     *oostream.QuerySetConfig
	meta    *metaSpec
	query   int
	queries []int
	// How to feed it: in chunks of sizes (one event each when nil), through
	// ProcessBatch when batched; supervised in a fresh directory when
	// durable, checkpointing every `every` events; traced, which holds the
	// counters to the trace and the truth to what the trace says was
	// admitted. At the positions listed: the strongest safe heartbeat; a
	// kill and recovery (the newest checkpoint damaged first when corrupt)
	// after which the chunk before is redelivered; a forced hybrid switch; a
	// checkpoint and restore; the late query's Register and the leaving
	// one's Unregister. input, when set, replaces the case: the events fed
	// and the bound, drawn from the runs checked before; such a run must
	// admit all it is fed, which a traced one checks.
	sizes                            []int
	batched, durable, trace, corrupt bool
	every                            int
	beats, crashes, switches         []int
	restores, registers, unregisters []int
	input                            func(*trial) ([]event.Event, event.Time, error)
	// What it must equal — truth, an earlier composition's run (a
	// QuerySet's, for one query, that query's share), or nothing (a
	// reference) — how, and whether every match's lineage validates.
	want    string
	how     cmp
	lineage bool
}

// metaSpec is a hybrid meta-engine: its controller, the controller's
// initial bound, and whether it starts sealing.
type metaSpec struct {
	ctrl        adaptive.Config
	k           event.Time
	startNative bool
}

// target is what a composition builds. Engine and QuerySet embed the
// facade, which has all of it; meta adapts the hybrid meta-engine.
type target interface {
	Start() ([]plan.Match, error)
	Process(event.Event) []plan.Match
	ProcessBatch([]event.Event) []plan.Match
	Advance(event.Time) []plan.Match
	Flush() []plan.Match
	Checkpoint(io.Writer) error
	Kill()
	Err() error
	Close() error
	Metrics() obsv.Snapshot
	StateSnapshot() *provenance.StateSnapshot
}

type meta struct{ *hybrid.Engine }

func (meta) Start() ([]plan.Match, error) { return nil, nil }
func (meta) Kill()                        {}
func (meta) Err() error                   { return nil }
func (meta) Close() error                 { return nil }

func (m meta) Checkpoint(w io.Writer) error {
	blob, err := engine.Seal(m.Engine.Checkpoint)
	if err == nil {
		_, err = w.Write(blob)
	}
	return err
}

// outcome is one composition's run: what it was fed and emitted, under
// which bound, and, traced (dropped and shed non-nil), what it rejected,
// its counters and state at the end and, when an element-wise comparison
// reads it, its trace (purges aside: deferring them is batching's one
// visible difference, by contract).
type outcome struct {
	fed           []event.Event
	out           []plan.Match
	k             event.Time
	dropped, shed map[event.Seq]bool
	ops           opBag
	metrics       obsv.Snapshot
	snap          *provenance.StateSnapshot
}

// admitted is events less what the run dropped or shed.
func (o *outcome) admitted(events []event.Event) []event.Event {
	if len(o.dropped)+len(o.shed) == 0 {
		return events
	}
	return slices.DeleteFunc(slices.Clone(events), func(e event.Event) bool { return o.dropped[e.Seq] || o.shed[e.Seq] })
}

const (
	maxTime = event.Time(1<<62 - 1)
	minTime = event.Time(math.MinInt64)
)

// drive builds m and feeds it the case, chunk by chunk with m's actions
// before the chunks they name, then flushes. An engine in memory is fed each
// Seq's first arrival; a durable one the arrival as it is, whose
// redeliveries its admission suppresses.
func (t *trial) drive(m composition) (o *outcome, err error) {
	o = &outcome{fed: t.firsts, k: t.c.K}
	if m.durable {
		o.fed = t.c.Arrival
	}
	if m.input != nil {
		if o.fed, o.k, err = m.input(t); err != nil {
			return nil, err
		}
	}
	var hook obsv.TraceHook
	if m.trace {
		o.dropped, o.shed = map[event.Seq]bool{}, map[event.Seq]bool{}
		if m.how == exact || t.exactly[m.name] {
			o.ops = opBag{}
		}
		hook = obsv.TraceFunc(func(te obsv.TraceEvent) {
			switch te.Op {
			case obsv.OpPurge:
				return
			case obsv.OpDrop:
				o.dropped[te.Seq] = true
			case obsv.OpShed:
				o.shed[te.Seq] = true
			}
			if o.ops != nil {
				o.ops[te]++
			}
		})
	}
	dir := ""
	if m.durable {
		if dir, err = os.MkdirTemp("", "oodiff-*"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	en, err := t.build(m, o.k, dir, hook, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := en.Close(); err == nil && cerr != nil {
			o, err = nil, cerr
		}
	}()
	out, err := en.Start()
	chunks, future := split(o.fed, m.sizes), minFuture(o.fed)
	for i, at := 0, 0; err == nil; i++ {
		if slices.Contains(m.crashes, i) {
			en.Kill()
			if m.corrupt && recovery.CountValidCheckpoints(dir) >= 2 {
				// Damaging the last valid checkpoint is legitimately
				// unrecoverable (its log prefix was pruned when it was
				// written), so damage is done only while a fallback remains.
				_ = recovery.CorruptNewestCheckpoint(dir)
			}
			next, err := t.build(m, o.k, dir, hook, nil)
			if err != nil {
				return nil, err
			}
			en = next
			ms, err := en.Start()
			if err != nil {
				return nil, fmt.Errorf("recover before chunk %d: %w", i, err)
			}
			out = append(out, ms...)
			// An at-least-once source sends the chunk before the kill again;
			// admission must suppress it without new emissions.
			if i > 0 {
				if dup := feed(en, chunks[i-1], m.batched); len(dup) != 0 || en.Err() != nil {
					return nil, fmt.Errorf("redelivered chunk %d emitted %d matches (%v)", i-1, len(dup), en.Err())
				}
			}
		}
		if slices.Contains(m.beats, i) && future[at] != maxTime {
			out = append(out, en.Advance(future[at]+o.k)...)
		}
		if slices.Contains(m.switches, i) {
			out = append(out, en.(meta).ForceSwitch()...)
		}
		if slices.Contains(m.restores, i) {
			var buf bytes.Buffer
			if err := en.Checkpoint(&buf); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			next, err := t.build(m, o.k, dir, hook, &buf)
			if err != nil {
				return nil, fmt.Errorf("restore: %w", err)
			}
			en = next
		}
		if slices.Contains(m.registers, i) {
			err = en.(*oostream.QuerySet).Register(t.queries[lateQuery].id, t.queries[lateQuery].q)
		}
		if slices.Contains(m.unregisters, i) && err == nil {
			var ms []plan.Match
			ms, err = en.(*oostream.QuerySet).Unregister(t.queries[leavingQuery].id)
			out = append(out, ms...)
		}
		if i == len(chunks) {
			break
		}
		out = append(out, feed(en, chunks[i], m.batched)...)
		at += len(chunks[i])
		if err == nil {
			err = en.Err()
		}
	}
	if err != nil {
		return nil, err
	}
	if o.out = append(out, en.Flush()...); m.trace {
		o.metrics, o.snap = en.Metrics(), en.StateSnapshot()
	}
	return o, en.Err()
}

// build makes m's target — on a durable one over dir, recovering what a
// killed one left there — or restores it from a checkpoint.
func (t *trial) build(m composition, k event.Time, dir string, hook obsv.TraceHook, from io.Reader) (target, error) {
	sc := oostream.SupervisorConfig{Dir: dir, CheckpointEvery: m.every, DisableFsync: true}
	if m.cfg != nil {
		cfg, q := *m.cfg, t.queries[m.query].q
		if cfg.Trace = hook; m.input != nil {
			cfg.K = k
		}
		switch {
		case from != nil:
			return built(oostream.RestoreEngine(q, cfg, from))
		case m.durable:
			return built(oostream.NewSupervisedEngine(q, cfg, sc))
		}
		return built(oostream.NewEngine(q, cfg))
	}
	if m.set != nil {
		cfg := *m.set
		if cfg.Trace = hook; from != nil {
			return built(oostream.RestoreQuerySet(cfg, from))
		}
		var set *oostream.QuerySet
		var err error
		if m.durable {
			set, err = oostream.NewSupervisedQuerySet(cfg, sc)
		} else {
			set, err = oostream.NewQuerySet(cfg)
		}
		for _, i := range m.queries {
			if err == nil {
				err = set.Register(t.queries[i].id, t.queries[i].q)
			}
		}
		return built(set, err)
	}
	p, env := t.queries[0].p, engine.Env{Trace: hook}
	if from != nil {
		sec, err := engine.Open(from)
		if err != nil {
			return nil, err
		}
		en, err := hybrid.Restore(p, env, sec)
		return built(meta{en}, err)
	}
	ctrl, err := adaptive.NewController(m.meta.ctrl, m.meta.k)
	if err != nil {
		return nil, err
	}
	en, err := hybrid.New(p, core.Options{Env: env}, hybrid.Options{Controller: ctrl, StartNative: m.meta.startNative})
	return built(meta{en}, err)
}

// built is en as a target, nil when err says it was not built.
func built[T target](en T, err error) (target, error) {
	if err != nil {
		return nil, err
	}
	return en, nil
}

// feed offers one chunk: event by event, or as one batch between a nil and
// an empty one, both documented no-ops.
func feed(en target, chunk []event.Event, batched bool) []plan.Match {
	if batched {
		out := append(en.ProcessBatch(nil), en.ProcessBatch(chunk)...)
		return append(out, en.ProcessBatch([]event.Event{})...)
	}
	var out []plan.Match
	for _, e := range chunk {
		out = append(out, en.Process(e)...)
	}
	return out
}

// split cuts events into chunks of the given sizes, or of one event each.
func split(events []event.Event, sizes []int) [][]event.Event {
	var chunks [][]event.Event
	for i := 0; len(events) > 0; i++ {
		n := 1
		if sizes != nil {
			n = sizes[i]
		}
		chunks, events = append(chunks, events[:n]), events[n:]
	}
	return chunks
}

// minFuture[i] is the smallest timestamp at or after events[i], maxTime past
// the end. The strongest safe heartbeat there is minFuture[i]+K: anything
// higher could make a later arrival late.
func minFuture(events []event.Event) []event.Time {
	future := make([]event.Time, len(events)+1)
	future[len(events)] = maxTime
	for i := len(events) - 1; i >= 0; i-- {
		future[i] = min(future[i+1], events[i].TS)
	}
	return future
}

// upto is the positions 1..n.
func upto(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// randomSizes partitions n into random chunks of 1..n/2+1, so both tiny and
// near-whole batches occur.
func randomSizes(rng *rand.Rand, n int) []int {
	var sizes []int
	for rest := n; rest > 0; rest -= sizes[len(sizes)-1] {
		sizes = append(sizes, min(1+rng.Intn(n/2+1), rest))
	}
	return sizes
}

// drawOffsets picks up to n distinct offsets in [0, limit], sorted.
func drawOffsets(rng *rand.Rand, limit, n int) []int {
	picked := map[int]bool{}
	for len(picked) < n && len(picked) <= limit {
		picked[rng.Intn(limit+1)] = true
	}
	offs := make([]int, 0, len(picked))
	for off := range picked {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	return offs
}
