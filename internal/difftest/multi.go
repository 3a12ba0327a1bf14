package difftest

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"

	"oostream"
	"oostream/internal/event"
	"oostream/internal/oracle"
	"oostream/internal/plan"
	"oostream/internal/recovery"
)

// multiQueryCount is how many queries RunMulti registers per trial: the
// case's own query plus extras derived from the seed alone — never from
// the arrival list — so shrinking the arrival keeps the registry fixed
// and shrinking stays sound.
const multiQueryCount = 4

// multiQuery is one registered query of a multi-query trial with its
// per-query oracle truth.
type multiQuery struct {
	id    string
	p     *plan.Plan
	q     *oostream.Query
	truth []plan.Match
}

// RunMulti executes the multi-query differential: a QuerySet with several
// registered queries must equal, per query, both the oracle and an
// independent single-query engine — the shared admission pass, the
// event-type index, and the prefix gates must be pure optimizations.
// Beyond that it verifies batch-ingestion exactness,
// per-query lineage, live Register/Unregister at heartbeat boundaries,
// and supervised kill/recover with the v2 (per-query namespaced)
// checkpoint format, including live mutations across crashes.
//
// Like Run it is a pure function of the Case (temp-directory naming
// aside), so shrinking against it is sound.
func RunMulti(c Case) *Failure {
	if len(c.Arrival) == 0 {
		return nil
	}
	queries, f := multiQueries(c)
	if f != nil {
		return f
	}
	for i := range queries {
		queries[i].truth = oracleOn(queries[i].p, c.Arrival)
	}
	if f := multiKernel(c, queries); f != nil {
		return f
	}
	if f := multiKSlack(c, queries); f != nil {
		return f
	}
	if f := multiBatch(c, queries); f != nil {
		return f
	}
	if f := multiProvenance(c, queries); f != nil {
		return f
	}
	if f := multiLive(c, queries); f != nil {
		return f
	}
	return multiCrash(c, queries)
}

// ShrinkMulti minimizes a failing multi-query case's arrival list while
// preserving failure, exactly as Shrink does for Run. The registered
// queries are a function of the seed, which minimization never changes.
func ShrinkMulti(f *Failure) *Failure {
	best := f
	runs := 0
	minimize(best.Case.Arrival, func(sub []event.Event) bool {
		if runs >= maxShrinkRuns {
			return false
		}
		runs++
		c := best.Case
		c.Arrival = sub
		if fail := RunMulti(c); fail != nil {
			best = fail
			return true
		}
		return false
	})
	return best
}

// multiQueries compiles the trial's registry: q0 is the case's query,
// q1..q3 derive from the seed.
func multiQueries(c Case) ([]multiQuery, *Failure) {
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5e7a11))
	queries := make([]multiQuery, 0, multiQueryCount)
	for i := 0; i < multiQueryCount; i++ {
		src := c.Query
		if i > 0 {
			src, _ = genQuery(rng)
		}
		p, err := plan.ParseAndCompile(src, Schema())
		if err != nil {
			return nil, &Failure{Case: c, Check: fmt.Sprintf("multi-compile/q%d", i), Diff: err.Error()}
		}
		q, err := oostream.Compile(src, Schema())
		if err != nil {
			return nil, &Failure{Case: c, Check: fmt.Sprintf("multi-compile/q%d", i), Diff: err.Error()}
		}
		queries = append(queries, multiQuery{id: fmt.Sprintf("q%d", i), p: p, q: q})
	}
	return queries, nil
}

// multiAdvanceEvery derives a small fan-out cadence from the seed so the
// AdvanceEvery path actually fires on difftest-sized streams — the default
// 256 releases would never trigger here, leaving the periodic fan (and its
// between-batches placement) unsoaked. By heartbeat-insertion invariance
// (I9) the cadence must never change any query's output.
func multiAdvanceEvery(c Case) int { return 1 + int(uint64(c.Seed)%7) }

// newMultiSet builds a QuerySet with the full registry registered.
func newMultiSet(cfg oostream.QuerySetConfig, queries []multiQuery) (*oostream.QuerySet, error) {
	set, err := oostream.NewQuerySet(cfg)
	if err != nil {
		return nil, err
	}
	for _, mq := range queries {
		if err := set.Register(mq.id, mq.q); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// byQuery splits a tagged match stream into per-query slices.
func byQuery(ms []plan.Match) map[string][]plan.Match {
	out := make(map[string][]plan.Match)
	for _, m := range ms {
		out[m.Query] = append(out[m.Query], m)
	}
	return out
}

// sameOrderedTagged compares two tagged match sequences exactly (kind,
// key, and owning query, in emission order).
func sameOrderedTagged(want, got []plan.Match) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i].Kind != got[i].Kind || want[i].Key() != got[i].Key() || want[i].Query != got[i].Query {
			return fmt.Sprintf("emission %d: want %v %s (%s), got %v %s (%s)",
				i, want[i].Kind, want[i].Key(), want[i].Query, got[i].Kind, got[i].Key(), got[i].Query)
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("want %d matches, got %d", len(want), len(got))
	}
	return ""
}

// multiKernel checks a QuerySet against the per-query oracle and
// against an independent single-query native engine on the same arrival
// order. Every registered query runs the kernel at K=0 behind the shared
// reorder buffer.
func multiKernel(c Case, queries []multiQuery) *Failure {
	set, err := newMultiSet(oostream.QuerySetConfig{K: c.K, AdvanceEvery: multiAdvanceEvery(c)}, queries)
	if err != nil {
		return &Failure{Case: c, Check: "multi", Diff: err.Error()}
	}
	got := byQuery(set.ProcessAll(c.Arrival))
	for _, mq := range queries {
		check := "multi/" + mq.id
		if ok, diff := plan.SameResults(mq.truth, got[mq.id]); !ok {
			return &Failure{Case: c, Check: check, Diff: diff, Truth: len(mq.truth)}
		}
		ind := run(mq.q, oostream.Config{Strategy: oostream.StrategyNative, K: c.K}, c.Arrival)
		if ok, diff := plan.SameResults(ind, got[mq.id]); !ok {
			return &Failure{Case: c, Check: check + "-independent", Diff: diff, Truth: len(ind)}
		}
	}
	return nil
}

// multiKSlack checks that the single-query kslack strategy and a one-query
// QuerySet are one composition — the K-slack buffer in front of the kernel
// at K=0: per query, every match of one appears in the other with the same
// events, projection, and lineage. Emission instants are not compared: the
// Set's prefix gates withhold events that cannot extend a match, so its
// kernel's clock, which decides when a negation result seals, and its
// traversal counts trail the facade's, whose kernel sees every released
// event.
func multiKSlack(c Case, queries []multiQuery) *Failure {
	content := func(ms []plan.Match) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			rec := *m.Prov
			rec.EmitClock, rec.Traversed = 0, 0
			out[i] = fmt.Sprintf("%v %s %v %+v", m.Kind, m.Key(), m.Fields, rec)
		}
		sort.Strings(out)
		return out
	}
	for _, mq := range queries {
		check := "multi-kslack-facade/" + mq.id
		set, err := newMultiSet(oostream.QuerySetConfig{K: c.K, Provenance: true}, []multiQuery{mq})
		if err != nil {
			return &Failure{Case: c, Check: check, Diff: err.Error()}
		}
		want := content(set.ProcessAll(c.Arrival))
		got := content(run(mq.q, oostream.Config{Strategy: oostream.StrategyKSlack, K: c.K, Provenance: true}, c.Arrival))
		if !slices.Equal(want, got) {
			return &Failure{Case: c, Check: check, Truth: len(want),
				Diff: fmt.Sprintf("one-query QuerySet:\n  %s\nkslack engine:\n  %s", strings.Join(want, "\n  "), strings.Join(got, "\n  "))}
		}
	}
	return nil
}

// multiBatch checks batch-ingestion exactness on the QuerySet: a
// seed-drawn batch partition of the arrival (with nil and empty no-op
// batches interleaved) must produce the identical tagged emission
// sequence as per-event calls — not merely the same multiset.
func multiBatch(c Case, queries []multiQuery) *Failure {
	cfg := oostream.QuerySetConfig{K: c.K, AdvanceEvery: multiAdvanceEvery(c)}
	perSet, err := newMultiSet(cfg, queries)
	if err != nil {
		return &Failure{Case: c, Check: "multi-batch", Diff: err.Error()}
	}
	want := perSet.ProcessAll(c.Arrival)

	batchSet, err := newMultiSet(cfg, queries)
	if err != nil {
		return &Failure{Case: c, Check: "multi-batch", Diff: err.Error()}
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0x6ba7c9))
	var got []plan.Match
	i := 0
	for _, n := range randomSizes(rng, len(c.Arrival)) {
		got = append(got, batchSet.ProcessBatch(nil)...) // documented no-op
		got = append(got, batchSet.ProcessBatch(c.Arrival[i:i+n])...)
		got = append(got, batchSet.ProcessBatch([]event.Event{})...) // ditto
		i += n
	}
	got = append(got, batchSet.Flush()...)
	if diff := sameOrderedTagged(want, got); diff != "" {
		return &Failure{Case: c, Check: "multi-batch", Diff: diff, Truth: len(want)}
	}
	return nil
}

// multiProvenance checks that lineage records survive the multi-query
// path: every tagged match's record must validate against its own query's
// plan, and enabling provenance must not change any query's multiset.
func multiProvenance(c Case, queries []multiQuery) *Failure {
	cfg := oostream.QuerySetConfig{K: c.K, Provenance: true, AdvanceEvery: multiAdvanceEvery(c)}
	set, err := newMultiSet(cfg, queries)
	if err != nil {
		return &Failure{Case: c, Check: "multi-prov", Diff: err.Error()}
	}
	got := byQuery(set.ProcessAll(c.Arrival))
	universe := seqUniverse(c.Arrival)
	for _, mq := range queries {
		if ok, diff := plan.SameResults(mq.truth, got[mq.id]); !ok {
			return &Failure{Case: c, Check: "multi-prov/" + mq.id, Diff: diff, Truth: len(mq.truth)}
		}
		if msg := validateLineage(mq.p, universe, got[mq.id]); msg != "" {
			return &Failure{Case: c, Check: "multi-prov/" + mq.id + "-lineage", Diff: msg, Truth: len(mq.truth)}
		}
	}
	return nil
}

// multiLive checks live Register/Unregister semantics: a query joining or
// leaving at a seed-drawn heartbeat boundary must see exactly the events
// the shared buffer releases while it is registered — its results equal
// the oracle over that visible substream — while undisturbed queries
// still equal the full-stream oracle (the boundary heartbeats are safe,
// so I9 applies).
func multiLive(c Case, queries []multiQuery) *Failure {
	n := len(c.Arrival)
	rng := rand.New(rand.NewSource(c.Seed ^ 0x11fe7a))
	regAt, unregAt := rng.Intn(n+1), rng.Intn(n+1)

	// minFuture[i] is the smallest timestamp at or after arrival i; the
	// strongest safe heartbeat before offering event i is minFuture[i]+K
	// (anything higher could make a future arrival late). It drains the
	// buffer down to exactly the events above minFuture[i].
	const maxTime = event.Time(1<<62 - 1)
	minFuture := make([]event.Time, n+1)
	minFuture[n] = maxTime
	for i := n - 1; i >= 0; i-- {
		minFuture[i] = minFuture[i+1]
		if c.Arrival[i].TS < minFuture[i] {
			minFuture[i] = c.Arrival[i].TS
		}
	}
	// wmAt is the shared watermark right after the boundary work at offset
	// i. The watermark is monotone, so it is the natural maxSeen−K
	// frontier over the processed prefix joined with every boundary
	// heartbeat at or before i. For i < n the boundary at i dominates both
	// (K-boundedness bounds the natural frontier; minFuture is
	// nondecreasing, so earlier boundaries sit below it) — but at i == n
	// no heartbeat fires, and an earlier boundary may have pushed the
	// watermark above the natural end-of-stream frontier.
	wmAt := func(i int) event.Time {
		wm, started := event.Time(0), false
		for _, e := range c.Arrival[:i] {
			if !started || e.TS > wm {
				wm, started = e.TS, true
			}
		}
		if !started {
			// Nothing processed: nothing released either way.
			return c.Arrival[0].TS - c.K - 1
		}
		wm -= c.K
		for _, b := range []int{regAt, unregAt} {
			if b <= i && minFuture[b] != maxTime && minFuture[b] > wm {
				wm = minFuture[b]
			}
		}
		return wm
	}

	set, err := oostream.NewQuerySet(oostream.QuerySetConfig{K: c.K, AdvanceEvery: multiAdvanceEvery(c)})
	if err != nil {
		return &Failure{Case: c, Check: "multi-live", Diff: err.Error()}
	}
	for _, mq := range queries[:3] {
		if err := set.Register(mq.id, mq.q); err != nil {
			return &Failure{Case: c, Check: "multi-live", Diff: err.Error()}
		}
	}
	lateQ, goneQ := queries[3], queries[1]
	var out, goneFinal []plan.Match
	for i := 0; i <= n; i++ {
		if i == regAt || i == unregAt {
			if minFuture[i] != maxTime {
				out = append(out, set.Advance(minFuture[i]+c.K)...)
			}
		}
		if i == regAt {
			if err := set.Register(lateQ.id, lateQ.q); err != nil {
				return &Failure{Case: c, Check: "multi-live-register", Diff: err.Error()}
			}
		}
		if i == unregAt {
			fin, err := set.Unregister(goneQ.id)
			if err != nil {
				return &Failure{Case: c, Check: "multi-live-unregister", Diff: err.Error()}
			}
			goneFinal = fin
		}
		if i == n {
			break
		}
		out = append(out, set.Process(c.Arrival[i])...)
	}
	out = append(out, set.Flush()...)
	got := byQuery(out)

	// Queries registered for the whole stream are untouched by the
	// boundary heartbeats and the neighbors' churn.
	for _, mq := range []multiQuery{queries[0], queries[2]} {
		if ok, diff := plan.SameResults(mq.truth, got[mq.id]); !ok {
			return &Failure{Case: c, Check: "multi-live/" + mq.id, Diff: diff, Truth: len(mq.truth)}
		}
	}

	// The departing query saw exactly the events released before its
	// removal: arrivals before the boundary at or below the watermark.
	wm := wmAt(unregAt)
	var visGone []event.Event
	for j, e := range c.Arrival {
		if j < unregAt && e.TS <= wm {
			visGone = append(visGone, e)
		}
	}
	sortedGone := make([]event.Event, len(visGone))
	copy(sortedGone, visGone)
	event.SortByTime(sortedGone)
	goneTruth := oracle.Matches(goneQ.p, sortedGone)
	goneGot := append(append([]plan.Match{}, got[goneQ.id]...), goneFinal...)
	if ok, diff := plan.SameResults(goneTruth, goneGot); !ok {
		return &Failure{Case: c, Check: "multi-live/" + goneQ.id + "-departed", Diff: diff, Truth: len(goneTruth)}
	}

	// The late query sees exactly the events released after it joined:
	// later arrivals plus earlier ones still buffered above the watermark.
	wm = wmAt(regAt)
	var visLate []event.Event
	for j, e := range c.Arrival {
		if j >= regAt || e.TS > wm {
			visLate = append(visLate, e)
		}
	}
	sortedLate := make([]event.Event, len(visLate))
	copy(sortedLate, visLate)
	event.SortByTime(sortedLate)
	lateTruth := oracle.Matches(lateQ.p, sortedLate)
	if ok, diff := plan.SameResults(lateTruth, got[lateQ.id]); !ok {
		return &Failure{Case: c, Check: "multi-live/" + lateQ.id + "-joined", Diff: diff, Truth: len(lateTruth)}
	}
	// And equals an independent engine over that substream (a subsequence
	// of a K-bounded arrival is K-bounded, so the bound still holds).
	ind := run(lateQ.q, oostream.Config{Strategy: oostream.StrategyNative, K: c.K}, visLate)
	if ok, diff := plan.SameResults(ind, got[lateQ.id]); !ok {
		return &Failure{Case: c, Check: "multi-live/" + lateQ.id + "-independent", Diff: diff, Truth: len(ind)}
	}
	return nil
}

// multiCrash checks the supervised QuerySet across kill/recover cycles
// with the v2 checkpoint format: the crashed run's tagged emission
// sequence must equal the uninterrupted baseline exactly, including live
// Register/Unregister mutations performed at offsets away from the
// crashes (each mutation forces a checkpoint, so the mutated registry
// must survive recovery). A second pair runs without mutations and with
// the newest checkpoint corrupted after each crash, which must fall back
// to the previous valid one transparently.
func multiCrash(c Case, queries []multiQuery) *Failure {
	n := len(c.Arrival)
	rng := rand.New(rand.NewSource(c.Seed ^ 0x7c4a5e))
	regAt, unregAt := rng.Intn(n+1), rng.Intn(n+1)
	var crashes []int
	for _, off := range drawOffsets(rng, n, crashPoints+2) {
		if off != regAt && off != unregAt && len(crashes) < crashPoints {
			crashes = append(crashes, off)
		}
	}
	mk := func(dir string) (*oostream.QuerySet, error) {
		s, err := oostream.NewSupervisedQuerySet(
			oostream.QuerySetConfig{K: c.K, AdvanceEvery: multiAdvanceEvery(c)},
			oostream.SupervisorConfig{Dir: dir, CheckpointEvery: 5, DisableFsync: true})
		if err != nil {
			return nil, err
		}
		for _, mq := range queries[:3] {
			if err := s.Register(mq.id, mq.q); err != nil {
				s.Close()
				return nil, err
			}
		}
		return s, nil
	}

	// Live mutations, no corruption.
	want, err := runSupervisedSet(mk, c.Arrival, queries, regAt, unregAt, nil, false)
	if err != nil {
		return &Failure{Case: c, Check: "multi-crash-baseline", Diff: err.Error()}
	}
	wq := byQuery(want)
	for _, mq := range []multiQuery{queries[0], queries[2]} {
		if ok, diff := plan.SameResults(mq.truth, wq[mq.id]); !ok {
			return &Failure{Case: c, Check: "multi-crash-truth/" + mq.id, Diff: diff, Truth: len(mq.truth)}
		}
	}
	got, err := runSupervisedSet(mk, c.Arrival, queries, regAt, unregAt, crashes, false)
	if err != nil {
		return &Failure{Case: c, Check: "multi-crash", Diff: err.Error()}
	}
	if diff := sameOrderedTagged(want, got); diff != "" {
		return &Failure{Case: c, Check: "multi-crash", Diff: diff, Truth: len(want)}
	}

	// Checkpoint corruption with a static registry. (Corruption and live
	// mutation are exclusive by design: a mutation's durability lives in
	// the checkpoint it forces — the WAL replays only events — so losing
	// that checkpoint legitimately loses the mutation.)
	want, err = runSupervisedSet(mk, c.Arrival, queries, -1, -1, nil, false)
	if err != nil {
		return &Failure{Case: c, Check: "multi-crash-corrupt-baseline", Diff: err.Error()}
	}
	got, err = runSupervisedSet(mk, c.Arrival, queries, -1, -1, crashes, true)
	if err != nil {
		return &Failure{Case: c, Check: "multi-crash-corrupt", Diff: err.Error()}
	}
	if diff := sameOrderedTagged(want, got); diff != "" {
		return &Failure{Case: c, Check: "multi-crash-corrupt", Diff: diff, Truth: len(want)}
	}
	return nil
}

// runSupervisedSet drives one supervised multi-query run: queries[3] is
// live-registered before offering arrival regAt, queries[1] is
// live-unregistered before offering arrival unregAt (−1 disables either),
// and the process is killed and recovered at each crash offset,
// re-delivering the previous event (an at-least-once source) which must
// emit nothing.
func runSupervisedSet(mk func(string) (*oostream.QuerySet, error), events []event.Event, queries []multiQuery, regAt, unregAt int, crashes []int, corrupt bool) ([]plan.Match, error) {
	dir, err := os.MkdirTemp("", "oomulti-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := mk(dir)
	if err != nil {
		return nil, err
	}
	out, err := s.Start()
	if err != nil {
		return nil, err
	}
	ci := 0
	for i := 0; i <= len(events); i++ {
		for ci < len(crashes) && crashes[ci] == i {
			ci++
			s.Kill()
			if corrupt && recovery.CountValidCheckpoints(dir) >= 2 {
				_ = recovery.CorruptNewestCheckpoint(dir)
			}
			s, err = mk(dir)
			if err != nil {
				return nil, err
			}
			ms, err := s.Start()
			if err != nil {
				return nil, fmt.Errorf("recover after crash at %d: %w", i, err)
			}
			out = append(out, ms...)
			if i > 0 {
				dup := s.Process(events[i-1])
				if err := s.Err(); err != nil {
					return nil, fmt.Errorf("redeliver %d: %w", i-1, err)
				}
				if len(dup) != 0 {
					return nil, fmt.Errorf("redelivered event %d emitted %d matches", i-1, len(dup))
				}
			}
		}
		if i == regAt {
			if err := s.Register(queries[3].id, queries[3].q); err != nil {
				return nil, fmt.Errorf("live register: %w", err)
			}
		}
		if i == unregAt {
			ms, err := s.Unregister(queries[1].id)
			if err != nil {
				return nil, fmt.Errorf("live unregister: %w", err)
			}
			out = append(out, ms...)
		}
		if i == len(events) {
			break
		}
		out = append(out, s.Process(events[i])...)
		if err := s.Err(); err != nil {
			return nil, fmt.Errorf("process %d: %w", i, err)
		}
	}
	out = append(out, s.Flush()...)
	if err := s.Err(); err != nil {
		return nil, err
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	return out, nil
}
