package difftest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"oostream"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
)

// RunBatch executes the batch≡per-event differential: every engine
// configuration is driven once per event (the reference) and again through
// ProcessBatch under several partition schemes — all-singleton batches, one
// whole-stream batch, and seed-derived random batch sizes — and the runs
// must agree exactly:
//
//   - the same matches in the same order, compared field by field with
//     lineage records dereferenced (insertions, retractions, provenance
//     citations, window bounds, trigger identity);
//   - the same multiset of trace operations, purges excepted — batch
//     admission defers purge scans to batch boundaries by contract, which
//     changes when state is reclaimed, never what the engine emits;
//   - with heartbeats injected at batch boundaries, identical output to
//     the per-event run advancing at the same stream positions (a
//     heartbeat at a boundary must not release matches the per-event run
//     would still be holding, and vice versa).
//
// Like Run it is a pure function of the Case, so it can serve as a fuzz
// target (espfuzz -batch) and failures shrink soundly.
func RunBatch(c Case) *Failure {
	q, err := oostream.Compile(c.Query, Schema())
	if err != nil {
		return &Failure{Case: c, Check: "compile", Diff: err.Error()}
	}

	type batchCfg struct {
		name string
		cfg  oostream.Config
	}
	// K in generated cases always covers the realized disorder, so the
	// c.K configurations never see a bound violation. The halved-K
	// variants force genuine late arrivals, exercising the drop path.
	// Generated streams (12–48 events) never reach the default purge
	// cadence (64) either, so the deferral-sensitive configurations run
	// with PurgeEvery=1: the per-event reference then purges after every
	// event while the batch run purges once per batch — the maximal
	// divergence the deferral-safety argument has to survive.
	lateK := c.K / 2
	cfgs := []batchCfg{
		{"batch-native", oostream.Config{Strategy: oostream.StrategyNative, K: c.K}},
		{"batch-native-purge1", oostream.Config{Strategy: oostream.StrategyNative, K: c.K, PurgeEvery: 1}},
		{"batch-native-latedrop", oostream.Config{Strategy: oostream.StrategyNative, K: lateK, PurgeEvery: 1}},
		{"batch-native-prov", oostream.Config{Strategy: oostream.StrategyNative, K: c.K, Provenance: true, PurgeEvery: 1}},
		{"batch-kslack", oostream.Config{Strategy: oostream.StrategyKSlack, K: c.K}},
		{"batch-kslack-late", oostream.Config{Strategy: oostream.StrategyKSlack, K: lateK, PurgeEvery: 1}},
		{"batch-speculate", oostream.Config{Strategy: oostream.StrategySpeculate, K: c.K, PurgeEvery: 1}},
		{"batch-speculate-late", oostream.Config{Strategy: oostream.StrategySpeculate, K: lateK, PurgeEvery: 1}},
		{"batch-speculate-prov", oostream.Config{Strategy: oostream.StrategySpeculate, K: c.K, Provenance: true, PurgeEvery: 1}},
	}

	// Partition schemes are a pure function of the seed. Singleton batches
	// pin ProcessBatch([e]) ≡ Process(e); the whole-stream batch maximizes
	// deferral; random sizes exercise every boundary in between.
	rng := rand.New(rand.NewSource(c.Seed ^ 0xba7c4))
	schemes := [][]int{singletonSizes(len(c.Arrival))}
	if len(c.Arrival) > 0 {
		schemes = append(schemes, []int{len(c.Arrival)})
	}
	for i := 0; i < 2; i++ {
		schemes = append(schemes, randomSizes(rng, len(c.Arrival)))
	}

	for _, bc := range cfgs {
		want, wantOps := runTracedPerEvent(q, bc.cfg, c.Arrival)
		for si, sizes := range schemes {
			check := fmt.Sprintf("%s-scheme%d", bc.name, si)
			got, gotOps := runTracedBatched(q, bc.cfg, c.Arrival, sizes)
			if diff := sameMatchSequence(want, got); diff != "" {
				return &Failure{Case: c, Check: check, Diff: diff + "\nbatch sizes: " + sizesString(sizes), Truth: len(want)}
			}
			if diff := sameOpBags(wantOps, gotOps); diff != "" {
				return &Failure{Case: c, Check: check + "-trace", Diff: diff + "\nbatch sizes: " + sizesString(sizes), Truth: len(want)}
			}
		}
		// Heartbeats at batch boundaries: the per-event run advancing after
		// the same stream positions must emit the same matches in the same
		// order. This pins the boundary contract — a heartbeat sequences
		// after the batch it trails, never inside it.
		sizes := randomSizes(rng, len(c.Arrival))
		hbWant := runHeartbeatsAtBoundaries(q, bc.cfg, c.Arrival, c.K, sizes, false)
		hbGot := runHeartbeatsAtBoundaries(q, bc.cfg, c.Arrival, c.K, sizes, true)
		if diff := sameMatchSequence(hbWant, hbGot); diff != "" {
			return &Failure{Case: c, Check: bc.name + "-heartbeat", Diff: diff + "\nbatch sizes: " + sizesString(sizes), Truth: len(hbWant)}
		}
	}

	return nil
}

// ShrinkBatch minimizes a RunBatch failure's arrival list, mirroring
// Shrink (which minimizes against Run).
func ShrinkBatch(f *Failure) *Failure {
	best := f
	runs := 0
	minimize(best.Case.Arrival, func(sub []event.Event) bool {
		if runs >= maxShrinkRuns {
			return false
		}
		runs++
		c := best.Case
		c.Arrival = sub
		if fail := RunBatch(c); fail != nil {
			best = fail
			return true
		}
		return false
	})
	return best
}

// opBag is a multiset of trace operations. TraceEvent is a comparable
// struct of scalars, so it keys a map directly; counting collapses
// ordering, which batch execution legitimately perturbs (an event's drain
// may run while a later event has already been admitted).
type opBag map[obsv.TraceEvent]int

// tracing returns a copy of cfg with a hook that counts every trace op
// except purges into bag. Purge timing is the one batch-visible
// difference the contract permits: deferral changes when (and in how many
// sweeps) state is reclaimed, never the match output.
func tracing(cfg oostream.Config, bag opBag) oostream.Config {
	cfg.Trace = obsv.TraceFunc(func(te obsv.TraceEvent) {
		if te.Op == obsv.OpPurge {
			return
		}
		bag[te]++
	})
	return cfg
}

// runTracedPerEvent drives the reference: one Process call per event, then
// Flush, collecting the trace-op multiset alongside the matches.
func runTracedPerEvent(q *oostream.Query, cfg oostream.Config, events []event.Event) ([]plan.Match, opBag) {
	bag := opBag{}
	en := oostream.MustNewEngine(q, tracing(cfg, bag))
	var out []plan.Match
	for _, e := range events {
		out = append(out, en.Process(e)...)
	}
	return append(out, en.Flush()...), bag
}

// runTracedBatched drives the same stream through ProcessBatch, one call
// per partition-scheme chunk.
func runTracedBatched(q *oostream.Query, cfg oostream.Config, events []event.Event, sizes []int) ([]plan.Match, opBag) {
	bag := opBag{}
	en := oostream.MustNewEngine(q, tracing(cfg, bag))
	var out []plan.Match
	pos := 0
	for _, n := range sizes {
		out = append(out, en.ProcessBatch(events[pos:pos+n])...)
		pos += n
	}
	return append(out, en.Flush()...), bag
}

// runHeartbeatsAtBoundaries drives the stream in the given chunks —
// batched through ProcessBatch or per event — issuing the strongest safe
// Advance (min future timestamp + K, as runWithHeartbeats derives it)
// after each chunk boundary. Both modes see the identical punctuation
// sequence at identical stream positions.
func runHeartbeatsAtBoundaries(q *oostream.Query, cfg oostream.Config, events []event.Event, k event.Time, sizes []int, batched bool) []plan.Match {
	const maxTime = event.Time(1<<62 - 1)
	minFuture := make([]event.Time, len(events)+1)
	minFuture[len(events)] = maxTime
	for i := len(events) - 1; i >= 0; i-- {
		minFuture[i] = minFuture[i+1]
		if events[i].TS < minFuture[i] {
			minFuture[i] = events[i].TS
		}
	}
	en := oostream.MustNewEngine(q, cfg)
	var out []plan.Match
	pos := 0
	for _, n := range sizes {
		if batched {
			out = append(out, en.ProcessBatch(events[pos:pos+n])...)
		} else {
			for _, e := range events[pos : pos+n] {
				out = append(out, en.Process(e)...)
			}
		}
		pos += n
		if minFuture[pos] != maxTime {
			out = append(out, en.Advance(minFuture[pos]+k)...)
		}
	}
	return append(out, en.Flush()...)
}

// sameMatchSequence compares two match sequences element-wise in emission
// order, lineage included, and describes the first divergence.
func sameMatchSequence(want, got []plan.Match) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		wr, gr := renderMatch(want[i]), renderMatch(got[i])
		if wr != gr {
			return fmt.Sprintf("emission %d differs:\n  per-event: %s\n  batched:   %s", i, wr, gr)
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("per-event run emitted %d matches, batched run %d", len(want), len(got))
	}
	return ""
}

// renderMatch renders a match field by field with its lineage record (and
// the record's InvalidatedBy citation) dereferenced, so pointer identity
// never leaks into the comparison.
func renderMatch(m plan.Match) string {
	prov := "<nil>"
	if m.Prov != nil {
		r := *m.Prov
		inv := "<nil>"
		if r.InvalidatedBy != nil {
			inv = fmt.Sprintf("%+v", *r.InvalidatedBy)
		}
		r.InvalidatedBy = nil
		prov = fmt.Sprintf("{%+v invalidatedBy=%s}", r, inv)
	}
	m.Prov = nil
	return fmt.Sprintf("%+v prov=%s", m, prov)
}

// sameOpBags compares two trace-op multisets and describes the first
// divergence deterministically (keys are rendered and sorted).
func sameOpBags(want, got opBag) string {
	type diff struct{ key, detail string }
	var diffs []diff
	for te, n := range want {
		if got[te] != n {
			diffs = append(diffs, diff{te.String(), fmt.Sprintf("per-event saw %d, batched %d: %s", n, got[te], te)})
		}
	}
	for te, n := range got {
		if _, ok := want[te]; !ok {
			diffs = append(diffs, diff{te.String(), fmt.Sprintf("per-event saw 0, batched %d: %s", n, te)})
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].key < diffs[j].key })
	return diffs[0].detail
}

// singletonSizes is the all-size-1 partition scheme.
func singletonSizes(n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 1
	}
	return sizes
}

// randomSizes partitions n into random chunks of 1..maxChunk, where
// maxChunk scales with the stream so both tiny and near-whole batches
// occur.
func randomSizes(rng *rand.Rand, n int) []int {
	var sizes []int
	maxChunk := n/2 + 1
	for n > 0 {
		s := 1 + rng.Intn(maxChunk)
		if s > n {
			s = n
		}
		sizes = append(sizes, s)
		n -= s
	}
	return sizes
}

func sizesString(sizes []int) string {
	parts := make([]string, len(sizes))
	for i, s := range sizes {
		parts[i] = fmt.Sprint(s)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
