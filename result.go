package oostream

import "context"

// ResultKind discriminates the two variants of a Result.
type ResultKind int

const (
	// ResultMatch is a pattern occurrence (or its Retract compensation
	// under the speculative strategy).
	ResultMatch ResultKind = iota + 1
	// ResultAggregate is one window's aggregate value for an AGGREGATE
	// query (or, under the speculative strategy, one half of a
	// retract+insert revision of a previously previewed window).
	ResultAggregate
)

// String names the kind.
func (k ResultKind) String() string {
	switch k {
	case ResultMatch:
		return "match"
	case ResultAggregate:
		return "aggregate"
	default:
		return "unknown"
	}
}

// Aggregate is the payload of an aggregate result: one window's value.
type Aggregate struct {
	// Func is the aggregation function name (COUNT/SUM/AVG/MIN/MAX).
	Func string
	// WindowStart and WindowEnd bound the half-open window
	// (WindowStart, WindowEnd]; WindowEnd is a multiple of the SLIDE pitch.
	WindowStart Time
	WindowEnd   Time
	// Group is the GROUP BY key; valid only when HasGroup.
	Group    Value
	HasGroup bool
	// Value is the aggregate result. COUNT and int-only SUM are KindInt;
	// AVG and float-tainted SUM are KindFloat; MIN/MAX keep the attribute's
	// kind.
	Value Value
	// Count is the number of pattern matches that contributed.
	Count int64
}

// Result is the unified engine output record: a pattern match or a
// windowed aggregate, distinguished by Kind. It is a view over Match —
// every Match-returning engine method has a Result-returning counterpart
// and both see the same stream of records.
type Result struct {
	m Match
}

// AsResult wraps one engine-emitted match in its Result view.
func AsResult(m Match) Result { return Result{m: m} }

// Results converts a slice of engine-emitted matches to the Result view.
func Results(ms []Match) []Result {
	if len(ms) == 0 {
		return nil
	}
	out := make([]Result, len(ms))
	for i, m := range ms {
		out[i] = Result{m: m}
	}
	return out
}

// Kind reports which variant this result is.
func (r Result) Kind() ResultKind {
	if r.m.Agg != nil {
		return ResultAggregate
	}
	return ResultMatch
}

// Retracted reports whether this result withdraws an earlier one: a
// speculative pattern retraction, or the retract half of an aggregate
// revision. Consumers that apply retractions (e.g. via SameResults'
// multiset semantics) converge to the exact result set.
func (r Result) Retracted() bool { return r.m.Kind == Retract }

// Match returns the underlying match record. It is always valid: aggregate
// results carry a placeholder window event (stamped with the window end)
// plus the Agg payload, so restamping, latency accounting, and lineage
// work uniformly across both kinds.
func (r Result) Match() Match { return r.m }

// Aggregate returns the window value of an aggregate result; ok is false
// for pattern matches.
func (r Result) Aggregate() (Aggregate, bool) {
	a := r.m.Agg
	if a == nil {
		return Aggregate{}, false
	}
	return Aggregate{
		Func:        a.Func,
		WindowStart: a.WindowStart,
		WindowEnd:   a.WindowEnd,
		Group:       a.Group,
		HasGroup:    a.HasGroup,
		Value:       a.Value,
		Count:       a.Count,
	}, true
}

// String renders the result on one line.
func (r Result) String() string {
	s := r.m.String()
	if r.Retracted() {
		return "retract " + s
	}
	return s
}

// ProcessResults is Process under the unified Result view.
func (e *Engine) ProcessResults(ev Event) []Result { return Results(e.Process(ev)) }

// ProcessBatchResults is ProcessBatch under the unified Result view.
func (e *Engine) ProcessBatchResults(events []Event) []Result {
	return Results(e.ProcessBatch(events))
}

// ProcessAllResults is ProcessAll under the unified Result view.
func (e *Engine) ProcessAllResults(events []Event) []Result {
	return Results(e.ProcessAll(events))
}

// AdvanceResults is Advance under the unified Result view.
func (e *Engine) AdvanceResults(ts Time) []Result { return Results(e.Advance(ts)) }

// FlushResults is Flush under the unified Result view.
func (e *Engine) FlushResults() []Result { return Results(e.Flush()) }

// RunResults is Run under the unified Result view: it consumes events from
// in until it closes or ctx is cancelled, forwards results to out, flushes
// on end-of-stream, and closes out before returning (ctx.Err() when
// cancelled, even with out unread). Batched ingestion (Config.Batch)
// applies exactly as in Run.
func (e *Engine) RunResults(ctx context.Context, in <-chan Event, out chan<- Result) error {
	defer close(out)
	mid := make(chan Match, cap(out)+1)
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx, in, mid) }()
	for m := range mid {
		select {
		case out <- Result{m: m}:
		case <-ctx.Done():
			// Run selects on ctx at every send, so it returns without
			// mid being drained.
			<-done
			return ctx.Err()
		}
	}
	return <-done
}
