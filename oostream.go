// Package oostream is a complex event processing library for event streams
// with out-of-order data arrival, reproducing Li, Liu, Ding, Rundensteiner,
// and Mani, "Event Stream Processing with Out-of-Order Data Arrival"
// (ICDCS Workshops 2007).
//
// It evaluates SASE-style sequence pattern queries
//
//	PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
//	WHERE   s.id = e.id AND s.id = c.id
//	WITHIN  12h
//
// over unbounded event streams whose events may arrive out of timestamp
// order, under a bounded-disorder (K-slack) assumption. Four interchangeable
// strategies implement the same query semantics over one out-of-order kernel
// (timestamp-sorted active instance stacks with out-of-order insertion and
// predecessor repair, construction triggered by the out-of-order event
// itself, safe-clock state purging); they differ in its emission policy and
// in what stands in front of it:
//
//   - StrategyNative — the paper's contribution: the kernel holding each
//     negation result until the safe clock seals its gaps (exact, final).
//   - StrategyKSlack — a K-slack reorder buffer in front of the kernel at
//     K=0. Exact under the bound, but every result pays up to K latency
//     and the buffer holds the whole recent stream.
//   - StrategySpeculate — the aggressive extension: the kernel emitting
//     eagerly and compensating wrong negation output with Retract matches.
//   - StrategyHybrid — one kernel whose emission policy flips between the
//     speculate and native behaviours as disorder and the configured
//     service-level objectives demand.
//
// The classic in-order SASE engine of the paper's problem analysis — exact
// on sorted input, missing matches and emitting premature negation results
// under disorder — is not a strategy: it is a reference kernel the
// experiments and examples drive directly (internal/inorder).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation.
package oostream

import (
	"context"
	"fmt"
	"io"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/runtime"
)

// Re-exported event model types. Events carry an application timestamp in
// logical milliseconds and an arrival-independent sequence number used for
// identity and tie-breaking.
type (
	// Event is a single stream occurrence.
	Event = event.Event
	// Attrs is the name-to-value literal an event's attributes are written
	// in; NewEvent (or Attrs.List) turns it into the sorted list an Event
	// carries, which Event.Attr reads.
	Attrs = event.Attrs
	// Value is a dynamically typed attribute value.
	Value = event.Value
	// Time is a logical timestamp (milliseconds).
	Time = event.Time
	// Seq is an event sequence number.
	Seq = event.Seq
	// Schema declares event types for query checking.
	Schema = event.Schema
	// Kind enumerates value kinds.
	Kind = event.Kind
	// Match is the one output type: a pattern occurrence, a Retract
	// compensation, or — for an AGGREGATE query — one window's value,
	// carried in Match.Agg (nil on pattern matches).
	Match = plan.Match
	// Aggregate is the window value of an aggregate Match: the function,
	// the half-open window (WindowStart, WindowEnd] (WindowEnd a multiple of
	// the SLIDE pitch), the GROUP BY key when HasGroup, the value (COUNT and
	// int-only SUM are KindInt, AVG and float-tainted SUM KindFloat, MIN/MAX
	// keep the attribute's kind), and the count of contributing matches.
	Aggregate = plan.AggValue
	// MatchKind distinguishes Insert results from Retract compensations.
	MatchKind = plan.MatchKind
	// Metrics is a snapshot of an engine's counters: what a scrape of its
	// series reads.
	Metrics = obsv.Snapshot
)

// Value constructors and kinds, re-exported.
var (
	// Int wraps an int64 attribute value.
	Int = event.Int
	// Float wraps a float64 attribute value.
	Float = event.Float
	// Str wraps a string attribute value.
	Str = event.Str
	// Bool wraps a bool attribute value.
	Bool = event.Bool
	// NewSchema creates an empty schema.
	NewSchema = event.NewSchema
	// NewEvent constructs an event carrying the given attributes.
	NewEvent = event.New
)

// Value kind constants, re-exported.
const (
	KindInt    = event.KindInt
	KindFloat  = event.KindFloat
	KindString = event.KindString
	KindBool   = event.KindBool
)

// Match kinds, re-exported.
const (
	Insert  = plan.Insert
	Retract = plan.Retract
)

// Query is a compiled pattern query, safe for use by multiple engines.
type Query struct {
	plan *plan.Plan
}

// Compile parses, analyzes, and plans a query. A non-nil schema enables
// attribute existence and kind checking at compile time.
func Compile(src string, schema *Schema) (*Query, error) {
	p, err := plan.ParseAndCompile(src, schema)
	if err != nil {
		return nil, err
	}
	return &Query{plan: p}, nil
}

// MustCompile is Compile for known-good query text; it panics on error.
func MustCompile(src string, schema *Schema) *Query {
	q, err := Compile(src, schema)
	if err != nil {
		panic(err)
	}
	return q
}

// Source returns the canonical text of the compiled query.
func (q *Query) Source() string { return q.plan.Source }

// Window returns the query's WITHIN length.
func (q *Query) Window() Time { return q.plan.Window }

// PatternLen returns the number of positive components.
func (q *Query) PatternLen() int { return q.plan.Len() }

// HasNegation reports whether the query has negated components.
func (q *Query) HasNegation() bool { return q.plan.HasNegation() }

// Explain renders a human-readable description of the compiled plan:
// sequence steps, predicate placement, negation gaps, projection, and the
// attributes the query can be partitioned by.
func (q *Query) Explain() string { return q.plan.Describe() }

// PartitionableBy reports whether every component of the query is linked by
// equality on attr, so that no match spans two values of it: the condition
// under which the kernel may file its state per value (AutoPartitionKey
// names the attribute it picked).
func (q *Query) PartitionableBy(attr string) bool { return q.plan.PartitionableBy(attr) }

// HasAggregate reports whether the query carries an AGGREGATE clause:
// its engines then emit windowed aggregate values instead of raw pattern
// matches (see Aggregate).
func (q *Query) HasAggregate() bool { return q.plan.Agg != nil }

// AutoPartitionKey returns the equivalence attribute the planner selected
// for key-partitioned stacks (the partitionable attribute appearing in the
// most equality predicates), or "" when the query is not partitionable.
// The kernel keys its active instance stacks and negation stores by this
// attribute automatically, confining construction and negation probes to
// one key group per trigger.
func (q *Query) AutoPartitionKey() string { return q.plan.PartitionKey }

// SameResults compares two match slices as multisets (applying Retract
// compensations) and describes the difference when they diverge.
func SameResults(a, b []Match) (bool, string) { return plan.SameResults(a, b) }

// Engine evaluates one compiled query under a chosen strategy, in memory
// (NewEngine, RestoreEngine) or durably (NewSupervisedEngine). Both kinds
// have one method set and emit Match values: a pattern occurrence, its
// Retract compensation, or, for an AGGREGATE query, one window's value in
// Match.Agg. Misuse — an event after Flush, or on a durable engine a call
// before Start, an event with Seq 0, a heartbeat — returns nil and is
// recorded in Err; no method panics.
//
// Engines are not safe for concurrent calls; use Run for channel-based
// plumbing.
type Engine struct {
	facade
}

// NewEngine builds an engine for the query. See Config for the strategy,
// disorder-bound, and observability knobs.
func NewEngine(q *Query, cfg Config) (*Engine, error) { return newEngine(q, cfg, nil) }

// RestoreEngine rebuilds an engine from a Checkpoint, configured and
// instrumented by cfg exactly as NewEngine would: Observer, Trace, Latency
// and Provenance apply to the restored engine. The query must be compiled
// from the same text the checkpointed engine ran. The kernel's own options
// (K, ablation knobs, the adaptive controller's state) are restored from the
// checkpoint; for StrategyKSlack the held events too, and a static buffer
// written at another K than cfg.K is refused (a supervisor admits by it).
// Every strategy restores, but only under the strategy that wrote the
// checkpoint: another cfg.Strategy is an error. A checkpoint in a layout
// older than this version's envelope is refused with an error naming the
// last commit that reads it.
// Checkpoints carry no lineage, so with cfg.Provenance matches whose partial
// state predates the restore carry records marked Truncated.
func RestoreEngine(q *Query, cfg Config, r io.Reader) (*Engine, error) {
	if r == nil {
		return nil, fmt.Errorf("RestoreEngine: nil checkpoint reader")
	}
	return newEngine(q, cfg, r)
}

// newEngine is NewEngine (r == nil) and RestoreEngine.
func newEngine(q *Query, cfg Config, r io.Reader) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := validateQueryConfig(q, cfg); err != nil {
		return nil, err
	}
	from, err := engine.Open(r)
	if err != nil {
		return nil, err
	}
	b := cfg.builder()
	inner, err := b.build(q.plan, cfg, b.series(string(cfg.Strategy)), from)
	if err == nil {
		err = from.Done()
	}
	if err != nil {
		return nil, err
	}
	return &Engine{facade: inMemory(inner, b.lat)}, nil
}

// validateQueryConfig checks the constraints that need both the compiled
// query and the config: what an aggregate cannot be combined with.
func validateQueryConfig(q *Query, cfg Config) error {
	if q.plan.Agg != nil && cfg.adaptiveActive() {
		return fmt.Errorf("aggregate queries need a fixed lateness bound; Adaptive disorder control cannot be combined with AGGREGATE")
	}
	return nil
}

// MustNewEngine is NewEngine for known-good configuration.
func MustNewEngine(q *Query, cfg Config) *Engine {
	en, err := NewEngine(q, cfg)
	if err != nil {
		panic(err)
	}
	return en
}

// Strategy returns the engine's composition name, e.g. "native", or
// "supervised(native)" for a durable engine.
func (e *Engine) Strategy() string { return e.inner.Name() }

// RawEngine is the contract of the engine behind the facade, exposed for
// harnesses that compose engines directly: Name, Process, ProcessBatch,
// Advance, Flush, Checkpoint, Metrics, StateSize, and StateSnapshot, with
// Seq pre-assigned by the caller. It is the one internal engine interface;
// the concrete types live in internal packages.
type RawEngine = engine.Engine

// Run consumes events from in until it closes or ctx is cancelled,
// forwarding matches to out; it flushes on end-of-stream and closes out
// before returning. End-of-stream seals the engine exactly as Flush does
// and returns Err; a cancelled Run returns ctx.Err() and leaves it open. On
// a sealed engine Run is refused like Process: it closes out and returns
// the refusal. Auto-assignment of Seq is NOT applied on this path — feed
// events with sequence numbers (generators assign them). Run hands the
// engine one event at a time; a caller holding a slice of events uses
// ProcessBatch.
func (e *Engine) Run(ctx context.Context, in <-chan Event, out chan<- Match) error {
	if e.shut != nil {
		close(out)
		e.refuse()
		return e.shut
	}
	p := runtime.NewPipeline(e.inner, engine.Env{Latency: e.spans})
	if err := p.Run(ctx, in, out); err != nil {
		return err
	}
	// End of stream: the pipeline flushed the inner engine.
	e.shut = errSealed
	return e.Err()
}
