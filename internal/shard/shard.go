// Package shard scales pattern matching across key partitions: when every
// component of a query is linked by equality on one attribute (checked by
// plan.PartitionableBy), the stream can be hash-partitioned on that
// attribute and each partition matched independently — the classic
// scale-out for CEP engines, here applied to the out-of-order setting
// (each shard keeps its own stacks, clock, and purge horizon; disorder
// bounds hold per shard because each shard sees a subsequence of the
// arrival order, which can only shrink delays... see note on Clock below).
//
// Engine routes sequentially on the caller's goroutine: it implements
// engine.Engine and its output order is deterministic. There is no
// goroutine-per-shard mode: the kernel spends about 0.5 µs per event, less
// than a handoff to another goroutine costs (EXPERIMENTS.md E28).
//
// Clock note: a shard only observes its own partition's max timestamp, so
// its safe clock lags the global one — pending negation output seals later
// than a single engine would, but never incorrectly. Routing heartbeats
// (Advance) to every shard re-synchronizes them.
package shard

import (
	"fmt"
	"hash/fnv"
	"math"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/metrics"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// Router assigns events to shards by hashing a key attribute.
type Router struct {
	attr   string
	shards int
}

// NewRouter builds a router over n shards keyed on attr.
func NewRouter(attr string, n int) (*Router, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard count must be positive, got %d", n)
	}
	if attr == "" {
		return nil, fmt.Errorf("partition attribute must not be empty")
	}
	return &Router{attr: attr, shards: n}, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.shards }

// Route returns the shard for an event, or an error when the event lacks
// the key attribute.
func (r *Router) Route(e event.Event) (int, error) {
	v, ok := e.Attr(r.attr)
	if !ok {
		return 0, fmt.Errorf("event %s lacks partition attribute %q", e.Type, r.attr)
	}
	return int(hashValue(v) % uint64(r.shards)), nil
}

// hashValue hashes an attribute value. Int(k) and Float(k) hash equal for
// integral k, matching Value.Equal's cross-kind semantics.
func hashValue(v event.Value) uint64 {
	h := fnv.New64a()
	switch v.Kind() {
	case event.KindInt:
		i, _ := v.AsInt()
		writeU64(h, uint64(i))
	case event.KindFloat:
		f, _ := v.AsFloat()
		if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			writeU64(h, uint64(int64(f)))
		} else {
			writeU64(h, math.Float64bits(f))
		}
	case event.KindString:
		s, _ := v.AsString()
		h.Write([]byte(s))
	case event.KindBool:
		b, _ := v.AsBool()
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

func writeU64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}

// Engine partitions a stream across sub-engines, sequentially. It
// implements engine.Engine.
type Engine struct {
	router *Router
	parts  []engine.Engine
	// met holds the routing layer's own counters (route errors); each part
	// publishes its own series, which the factory wires when it builds it.
	met metrics.Collector
	// routeErrors counts events lacking the key attribute (dropped).
	routeErrors uint64
	// prov marks provenance enabled: relayed matches get their lineage
	// records tagged with the emitting shard's index.
	prov bool
}

var _ engine.Engine = (*Engine)(nil)

// New builds a partitioned engine. The factory is called once per shard
// and builds each part with that shard's own Env; env is the routing
// layer's (its series receives the route errors, its provenance switch
// turns on shard tagging of relayed records). p must be PartitionableBy the
// router's attribute — callers (the facade) validate that.
func New(router *Router, env engine.Env, factory func(shard int) (engine.Engine, error)) (*Engine, error) {
	parts, err := buildParts(router, factory)
	if err != nil {
		return nil, err
	}
	return newEngine(router, env, parts), nil
}

func newEngine(router *Router, env engine.Env, parts []engine.Engine) *Engine {
	return &Engine{router: router, parts: parts, met: metrics.NewCollector(env.Series), prov: env.Provenance}
}

func buildParts(router *Router, factory func(shard int) (engine.Engine, error)) ([]engine.Engine, error) {
	parts := make([]engine.Engine, router.Shards())
	for i := range parts {
		en, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		parts[i] = en
	}
	return parts, nil
}

// Name implements engine.Engine.
func (en *Engine) Name() string { return "shard(" + en.parts[0].Name() + ")" }

// Process implements engine.Engine: routes to one shard. Events without
// the key attribute are counted and dropped (they cannot participate in
// any match of a partitionable query).
func (en *Engine) Process(e event.Event) []plan.Match {
	shard, err := en.router.Route(e)
	if err != nil {
		en.routeErrors++
		en.met.IncPredError(err)
		return nil
	}
	ms := en.parts[shard].Process(e)
	if en.prov {
		tagShard(ms, shard)
	}
	return ms
}

// ProcessBatch implements engine.Engine: consecutive events that
// route to the same shard are handed to that shard's batch path as one
// subslice. Because shards are independent (an event only ever affects its
// own shard's matches), regrouping consecutive same-shard runs emits
// exactly the per-event concatenation.
func (en *Engine) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	start := 0
	cur := -1
	flush := func(end int) {
		if cur < 0 || start == end {
			return
		}
		ms := en.parts[cur].ProcessBatch(batch[start:end])
		if en.prov {
			tagShard(ms, cur)
		}
		out = append(out, ms...)
	}
	for i := range batch {
		shard, err := en.router.Route(batch[i])
		if err != nil {
			flush(i)
			start, cur = i+1, -1
			en.routeErrors++
			en.met.IncPredError(err)
			continue
		}
		if shard != cur {
			flush(i)
			start, cur = i, shard
		}
	}
	flush(len(batch))
	return out
}

// tagShard stamps the emitting shard's index into relayed lineage records.
func tagShard(ms []plan.Match, shard int) {
	for i := range ms {
		if ms[i].Prov != nil {
			ms[i].Prov.Shard = shard
		}
	}
}

// Advance implements engine.Engine: heartbeats go to every shard,
// re-synchronizing their clocks.
func (en *Engine) Advance(ts event.Time) []plan.Match {
	var out []plan.Match
	for i, p := range en.parts {
		ms := p.Advance(ts)
		if en.prov {
			tagShard(ms, i)
		}
		out = append(out, ms...)
	}
	return out
}

// Flush implements engine.Engine.
func (en *Engine) Flush() []plan.Match {
	var out []plan.Match
	for i, p := range en.parts {
		ms := p.Flush()
		if en.prov {
			tagShard(ms, i)
		}
		out = append(out, ms...)
	}
	return out
}

// StateSnapshot implements engine.Engine: per-shard snapshots aggregated
// under the routing engine's name.
func (en *Engine) StateSnapshot() *provenance.StateSnapshot {
	subs := make([]*provenance.StateSnapshot, len(en.parts))
	for i, p := range en.parts {
		subs[i] = p.StateSnapshot()
	}
	return provenance.Aggregate(en.Name(), subs)
}

// RouteErrors returns how many events lacked the partition attribute.
func (en *Engine) RouteErrors() uint64 { return en.routeErrors }

// StateSize implements engine.Engine: the sum over shards.
func (en *Engine) StateSize() int {
	total := 0
	for _, p := range en.parts {
		total += p.StateSize()
	}
	return total
}

// Metrics implements engine.Engine by summing shard counters. Latency and
// watermark-lag histograms merge exactly (identical bucket layouts);
// per-shard peak gauges sum to an upper bound on the true simultaneous
// peak.
func (en *Engine) Metrics() metrics.Snapshot {
	agg := metrics.Snapshot{PredErrors: en.routeErrors}
	for _, p := range en.parts {
		s := p.Metrics()
		agg.EventsIn += s.EventsIn
		agg.EventsLate += s.EventsLate
		agg.EventsOOO += s.EventsOOO
		agg.Irrelevant += s.Irrelevant
		agg.Matches += s.Matches
		agg.Retractions += s.Retractions
		agg.PredErrors += s.PredErrors
		agg.Purged += s.Purged
		agg.PurgeCalls += s.PurgeCalls
		agg.Probes += s.Probes
		agg.EmptyProbes += s.EmptyProbes
		agg.Repairs += s.Repairs
		agg.LiveState += s.LiveState
		agg.PeakState += s.PeakState
		agg.KeyGroups += s.KeyGroups
		agg.PeakKeyGroups += s.PeakKeyGroups
		agg.LogicalLat.Merge(s.LogicalLat)
		agg.ArrivalLat.Merge(s.ArrivalLat)
		agg.WatermarkLag.Merge(s.WatermarkLag)
		agg.EventsDropped += s.EventsDropped
		agg.EventsDeadLettered += s.EventsDeadLettered
		agg.DuplicatesSuppressed += s.DuplicatesSuppressed
		agg.Restarts += s.Restarts
		agg.Checkpoints += s.Checkpoints
		agg.CheckpointBytes += s.CheckpointBytes
		if s.CheckpointDuration > agg.CheckpointDuration {
			agg.CheckpointDuration = s.CheckpointDuration
		}
		agg.LineageRecords += s.LineageRecords
		agg.LineageLive += s.LineageLive
		agg.LineageBytes += s.LineageBytes
	}
	return agg
}
