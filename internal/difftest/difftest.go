// Package difftest is the randomized differential-testing harness that
// guards the library's central claim: every strategy computes the same
// match multiset. For a generated (query, stream, disorder) triple it runs
// the strategies and a mid-stream checkpoint/restore round-trip, and
// compares every result multiset against the brute-force oracle on the
// sorted stream — which is, by I1, the normative semantics.
//
// The harness is deterministic: a trial is a pure function of its seed
// (Generate), and a trial's verdict is a pure function of its Case (Run),
// so any failure reproduces from a single printed seed or, after
// Shrink, from a minimized Go-source literal suitable for checking in as
// a regression test (see regress_test.go).
//
// Properties checked per trial, beyond plain oracle equality:
//
//   - arrival-permutation invariance: truth is computed once from the
//     sorted stream; the engines see an arbitrary K-bounded arrival order
//     (none, Shuffle, or netsim delivery), so agreement with truth is
//     agreement across permutations;
//   - heartbeat-insertion invariance (I9): interleaving safe Advance calls
//     between events never changes the final multiset;
//   - speculation convergence (I7): the speculative engine's inserts minus
//     retracts equal the exact result set after sealing;
//   - partitioning soundness (I8): on partitionable queries the kernel
//     files its state per key, and every keyed run above must equal the
//     oracle, which keys nothing;
//   - expiry-order soundness: under either policy the kernel's expiry
//     orders must index exactly its live state (core.Engine.CheckDue);
//   - checkpoint transparency: the native, speculative and hybrid state
//     serialized and restored mid-stream continues to the identical output
//     sequence (through keyed stacks whenever the query is partitionable;
//     the hybrid switched before the cut);
//   - latency-sampler transparency: a densely sampled wall-clock
//     attribution run (Config.Latency, 1-in-4 with an SLO tracker) emits
//     the identical output sequence as the uninstrumented run, on both the
//     native fast path and the kslack held-span path.
package difftest

import (
	"bytes"
	"fmt"
	"time"

	"oostream"
	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/hybrid"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

// PartitionAttr is the attribute every generated event carries and
// partitionable generated queries link on.
const PartitionAttr = "id"

// Case is one differential trial: a query, a disorder bound, and a
// concrete arrival order. Sorted truth is derived, not stored — the
// arrival order IS the test input. Event Seq numbers give events identity
// across orders and must be unique; Generate assigns them in sorted order.
type Case struct {
	// Seed reproduces the case via Generate; 0 for hand-written cases.
	Seed int64
	// Query is the pattern query source text.
	Query string
	// K is the disorder bound configured on every bounded strategy. It
	// must dominate the arrival order's real disorder (gen.MaxDelay).
	K event.Time
	// Arrival is the stream in arrival order.
	Arrival []event.Event
}

func isNaN(v event.Value) bool {
	f, _ := v.AsFloat()
	return f != f
}

// Failure describes a divergence found by Run.
type Failure struct {
	// Case is the failing trial (possibly shrunk).
	Case Case
	// Check names the property that failed, e.g. "native" or "checkpoint".
	Check string
	// Diff is the multiset diff (oracle vs engine) or error text.
	Diff string
	// Truth is the oracle's match count, for the report.
	Truth int
}

// Error renders the failure on one line.
func (f *Failure) Error() string {
	return fmt.Sprintf("seed %d: check %q diverged (%d truth matches): %s", f.Case.Seed, f.Check, f.Truth, f.Diff)
}

// Run executes every engine configuration over the case and returns the
// first divergence from the oracle, or nil when all agree. It is a pure
// function of the case, which is what makes shrinking sound.
func Run(c Case) *Failure {
	p, err := plan.ParseAndCompile(c.Query, Schema())
	if err != nil {
		return &Failure{Case: c, Check: "compile", Diff: err.Error()}
	}
	q, err := oostream.Compile(c.Query, Schema())
	if err != nil {
		return &Failure{Case: c, Check: "compile", Diff: err.Error()}
	}

	sorted := make([]event.Event, len(c.Arrival))
	copy(sorted, c.Arrival)
	event.SortByTime(sorted)
	truth := oracle.Matches(p, sorted)

	fail := func(check string, got []plan.Match) *Failure {
		if ok, diff := plan.SameResults(truth, got); !ok {
			return &Failure{Case: c, Check: check, Diff: diff, Truth: len(truth)}
		}
		return nil
	}
	errf := func(check string, err error) *Failure {
		return &Failure{Case: c, Check: check, Diff: err.Error(), Truth: len(truth)}
	}

	// The strategies on the arrival order.
	native := oostream.Config{Strategy: oostream.StrategyNative, K: c.K}
	if f := fail("native", run(q, native, c.Arrival)); f != nil {
		return f
	}
	if err := checkDueOrders(p, c); err != nil {
		return errf("due-orders", err)
	}
	if f := fail("kslack", run(q, oostream.Config{Strategy: oostream.StrategyKSlack, K: c.K}, c.Arrival)); f != nil {
		return f
	}
	if f := fail("speculate", run(q, oostream.Config{Strategy: oostream.StrategySpeculate, K: c.K}, c.Arrival)); f != nil {
		return f
	}

	// Provenance-enabled runs: the multiset must be unchanged (lineage is
	// observation, not computation), and every emitted match's lineage
	// record must validate against the oracle's event universe — citations
	// resolve, order and window hold, predicates pass, retractions cite a
	// real invalidating event inside a negation gap.
	universe := seqUniverse(c.Arrival)
	for _, pc := range []struct {
		check string
		cfg   oostream.Config
	}{
		{"native-prov", oostream.Config{Strategy: oostream.StrategyNative, K: c.K, Provenance: true}},
		{"kslack-prov", oostream.Config{Strategy: oostream.StrategyKSlack, K: c.K, Provenance: true}},
		{"speculate-prov", oostream.Config{Strategy: oostream.StrategySpeculate, K: c.K, Provenance: true}},
	} {
		got := run(q, pc.cfg, c.Arrival)
		if f := fail(pc.check, got); f != nil {
			return f
		}
		if msg := validateLineage(p, universe, got); msg != "" {
			return &Failure{Case: c, Check: pc.check + "-lineage", Diff: msg, Truth: len(truth)}
		}
	}

	// Latency-sampling transparency: the wall-clock attribution sampler is
	// observation only, so a densely sampled run (1-in-4, SLO tracker on,
	// exercising the span fast path, the kslack Hold/FinishHeld protocol,
	// and the burn-rate buckets) must emit the identical output sequence as
	// the uninstrumented run — element for element, not merely the same
	// multiset.
	samplerOn := oostream.Latency{SampleEvery: 4,
		SLO: oostream.LatencySLO{Objective: time.Millisecond, Target: 0.99}}
	for _, lc := range []struct {
		check string
		cfg   oostream.Config
	}{
		{"native-latency", native},
		{"kslack-latency", oostream.Config{Strategy: oostream.StrategyKSlack, K: c.K}},
	} {
		sampled := lc.cfg
		sampled.Latency = samplerOn
		if diff := identicalMatches(run(q, lc.cfg, c.Arrival), run(q, sampled, c.Arrival)); diff != "" {
			return &Failure{Case: c, Check: lc.check, Diff: diff, Truth: len(truth)}
		}
	}

	// Heartbeat-insertion invariance (I9): interleave the strongest safe
	// Advance between events.
	if f := fail("native-heartbeat", runWithHeartbeats(q, native, c.Arrival, c.K)); f != nil {
		return f
	}

	// Checkpoint/restore round-trip at mid-stream.
	speculate := oostream.Config{Strategy: oostream.StrategySpeculate, K: c.K}
	for _, leg := range []struct {
		name    string
		run     func([]event.Event) []plan.Match
		restore func([]event.Event) ([]plan.Match, error)
	}{
		{"", func(ev []event.Event) []plan.Match { return run(q, native, ev) },
			func(ev []event.Event) ([]plan.Match, error) { return runCheckpointed(q, native, ev) }},
		{"-speculate", func(ev []event.Event) []plan.Match { return run(q, speculate, ev) },
			func(ev []event.Event) ([]plan.Match, error) { return runCheckpointed(q, speculate, ev) }},
		{"-hybrid", func(ev []event.Event) []plan.Match { got, _ := runHybrid(p, c.K, ev, false); return got },
			func(ev []event.Event) ([]plan.Match, error) { return runHybrid(p, c.K, ev, true) }},
	} {
		got, err := leg.restore(c.Arrival)
		if err != nil {
			return errf("checkpoint"+leg.name, err)
		}
		if ok, diff := plan.SameResults(truth, got); !ok {
			return &Failure{Case: c, Check: "checkpoint" + leg.name, Diff: diff, Truth: len(truth)}
		}
		// Bindings that seal together leave in completion order, and
		// vulnerable matches retract in emission order, across a restore.
		if diff := identicalMatches(leg.run(c.Arrival), got); diff != "" {
			return &Failure{Case: c, Check: "checkpoint-order" + leg.name, Diff: diff, Truth: len(truth)}
		}
	}
	return nil
}

// runHybrid drives the hybrid meta-engine, starting speculative, over the
// events with a switch to sealing forced a quarter of the way in; with
// checkpointed it serializes the engine halfway, restores it, and finishes
// the stream on the restored one.
func runHybrid(p *plan.Plan, k event.Time, events []event.Event, checkpointed bool) ([]plan.Match, error) {
	ctrl, err := adaptive.NewController(adaptive.Config{}, k)
	if err != nil {
		return nil, err
	}
	en, err := hybrid.New(p, core.Options{}, hybrid.Options{Controller: ctrl})
	if err != nil {
		return nil, err
	}
	var out []plan.Match
	for i, e := range events {
		if i == len(events)/4 {
			out = append(out, en.ForceSwitch()...)
		}
		if i == len(events)/2 && checkpointed {
			blob, err := engine.Seal(en.Checkpoint)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			sec, err := engine.Open(bytes.NewReader(blob))
			if err == nil {
				en, err = hybrid.Restore(p, engine.Env{}, sec)
			}
			if err != nil {
				return nil, fmt.Errorf("restore: %w", err)
			}
		}
		out = append(out, en.Process(e)...)
	}
	return append(out, en.Flush()...), nil
}

// checkDueOrders runs every kernel the strategies above are built on — both
// emission policies — over the arrival order, purging eight times as often
// as the default so that a short trial sees several passes, and verifies
// with the stream fully admitted and not yet flushed that its expiry orders
// index exactly the live stack instances, buffered negatives and vulnerable
// matches: an entry lost on any insert path would strand state that no purge
// pass reaches again.
func checkDueOrders(p *plan.Plan, c Case) error {
	for _, emit := range []core.EmitPolicy{core.SealThenEmit, core.EmitThenRetract} {
		en, err := core.New(p, core.Options{K: c.K, Emit: emit, PurgeEvery: 8})
		if err != nil {
			return err
		}
		for _, e := range c.Arrival {
			en.Process(e)
		}
		if err := en.CheckDue(); err != nil {
			return fmt.Errorf("%s: %w", emit, err)
		}
	}
	return nil
}

// identicalMatches reports the first difference between two match
// sequences compared element-wise (order-sensitive), or "" when they are
// identical.
func identicalMatches(a, b []plan.Match) string {
	if len(a) != len(b) {
		return fmt.Sprintf("first run emitted %d matches, second %d", len(a), len(b))
	}
	for i := range a {
		sa, sb := fmt.Sprintf("%+v", a[i]), fmt.Sprintf("%+v", b[i])
		if sa != sb {
			return fmt.Sprintf("match %d differs:\n  first:  %s\n  second: %s", i, sa, sb)
		}
	}
	return ""
}

// run drives a fresh facade engine over the events.
func run(q *oostream.Query, cfg oostream.Config, events []event.Event) []plan.Match {
	return oostream.MustNewEngine(q, cfg).ProcessAll(events)
}

// runWithHeartbeats interleaves the strongest safe Advance between events:
// after event i, the source can promise time min(future timestamps) + K —
// anything higher could make a future arrival late. Heartbeats below the
// engine's clock are exercised too (they must be no-ops).
func runWithHeartbeats(q *oostream.Query, cfg oostream.Config, events []event.Event, k event.Time) []plan.Match {
	// minFuture[i] is the smallest timestamp at or after arrival i.
	minFuture := make([]event.Time, len(events)+1)
	const maxTime = event.Time(1<<62 - 1)
	minFuture[len(events)] = maxTime
	for i := len(events) - 1; i >= 0; i-- {
		minFuture[i] = minFuture[i+1]
		if events[i].TS < minFuture[i] {
			minFuture[i] = events[i].TS
		}
	}
	en := oostream.MustNewEngine(q, cfg)
	var out []plan.Match
	for i, e := range events {
		out = append(out, en.Process(e)...)
		if minFuture[i+1] != maxTime {
			out = append(out, en.Advance(minFuture[i+1]+k)...)
		}
	}
	return append(out, en.Flush()...)
}

// runCheckpointed processes half the arrival order, serializes the engine,
// restores it, and finishes the stream on the restored engine.
func runCheckpointed(q *oostream.Query, cfg oostream.Config, events []event.Event) ([]plan.Match, error) {
	en := oostream.MustNewEngine(q, cfg)
	half := len(events) / 2
	var out []plan.Match
	for _, e := range events[:half] {
		out = append(out, en.Process(e)...)
	}
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	restored, err := oostream.RestoreEngine(q, cfg, &buf)
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	for _, e := range events[half:] {
		out = append(out, restored.Process(e)...)
	}
	return append(out, restored.Flush()...), nil
}
