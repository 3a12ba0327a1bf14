package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"oostream"
	"oostream/internal/adaptive"
	"oostream/internal/event"
	"oostream/internal/gen"
)

// Each mode lists its compositions per case, in the order they are checked;
// a composition another wants comes first.

func strategy(s oostream.Strategy, k event.Time) *oostream.Config {
	return &oostream.Config{Strategy: s, K: k}
}

func withProvenance(cfg *oostream.Config) *oostream.Config {
	c := *cfg
	c.Provenance = true
	return &c
}

// plainMode holds every strategy to the oracle, and each instrument and
// round-trip to the run without it.
func plainMode(t *trial) []composition {
	k, n := t.c.K, len(t.firsts)
	native, kslack, speculate := strategy(oostream.StrategyNative, k), strategy(oostream.StrategyKSlack, k), strategy(oostream.StrategySpeculate, k)
	// The wall-clock attribution sampler, dense (1-in-4, an SLO tracker on),
	// through the span fast path and the kslack held-span path.
	sampled := func(cfg *oostream.Config) *oostream.Config {
		c := *cfg
		c.Latency = oostream.Latency{SampleEvery: 4, SLO: oostream.LatencySLO{Objective: time.Millisecond, Target: 0.99}}
		return &c
	}
	half, hybrid := []int{n / 2}, &metaSpec{k: k}
	return []composition{
		{name: "native", cfg: native, want: truth},
		{name: "kslack", cfg: kslack, want: truth},
		{name: "speculate", cfg: speculate, want: truth},
		{name: "native-prov", cfg: withProvenance(native), want: truth, lineage: true},
		{name: "kslack-prov", cfg: withProvenance(kslack), want: truth, lineage: true},
		{name: "speculate-prov", cfg: withProvenance(speculate), want: truth, lineage: true},
		{name: "native-latency", cfg: sampled(native), want: "native", how: exact},
		{name: "kslack-latency", cfg: sampled(kslack), want: "kslack", how: exact},
		{name: "native-heartbeat", cfg: native, beats: upto(n), want: truth},
		// A restore continues to the identical output: bindings that seal
		// together leave in completion order, vulnerable matches retract in
		// emission order. The hybrid leaves speculation a quarter of the way
		// in, before the cut.
		{name: "checkpoint", cfg: native, restores: half, want: "native", how: exact},
		{name: "checkpoint-speculate", cfg: speculate, restores: half, want: "speculate", how: exact},
		{name: "hybrid", meta: hybrid, switches: []int{n / 4}, want: truth},
		{name: "checkpoint-hybrid", meta: hybrid, switches: []int{n / 4}, restores: half, want: "hybrid", how: exact},
	}
}

// batchMode drives every configuration once per event, traced, and again
// through ProcessBatch under each partition scheme and with heartbeats at
// random batch boundaries. Generated streams (12–48 events) never reach the
// default purge cadence, so the deferral-sensitive configurations purge
// after every event: the maximal divergence from the batch run, which
// purges once per batch. The halved-K ones force late arrivals.
func batchMode(t *trial) []composition {
	k, n := t.c.K, len(t.firsts)
	cfg := func(s oostream.Strategy, k event.Time, purge int) *oostream.Config {
		return &oostream.Config{Strategy: s, K: k, PurgeEvery: purge}
	}
	native, kslack, speculate := oostream.StrategyNative, oostream.StrategyKSlack, oostream.StrategySpeculate
	rng := rand.New(rand.NewSource(t.c.Seed ^ 0xba7c4))
	schemes := [][]int{nil} // one event a batch
	if n > 0 {
		schemes = append(schemes, []int{n})
	}
	schemes = append(schemes, randomSizes(rng, n), randomSizes(rng, n))
	var list []composition
	for _, b := range []struct {
		name string
		cfg  *oostream.Config
	}{
		{"batch-native", cfg(native, k, 0)},
		{"batch-native-purge1", cfg(native, k, 1)},
		{"batch-native-latedrop", cfg(native, k/2, 1)},
		{"batch-native-prov", withProvenance(cfg(native, k, 1))},
		{"batch-kslack", cfg(kslack, k, 0)},
		{"batch-kslack-late", cfg(kslack, k/2, 1)},
		{"batch-speculate", cfg(speculate, k, 1)},
		{"batch-speculate-late", cfg(speculate, k/2, 1)},
		{"batch-speculate-prov", withProvenance(cfg(speculate, k, 1))},
	} {
		list = append(list, composition{name: b.name, cfg: b.cfg, trace: true})
		for i, sizes := range schemes {
			list = append(list, composition{name: fmt.Sprintf("%s-scheme%d", b.name, i), cfg: b.cfg, trace: true,
				sizes: sizes, batched: true, want: b.name, how: exact})
		}
		// A heartbeat sequences after the batch it trails, never inside it.
		sizes := randomSizes(rng, n)
		ref := composition{name: b.name + "-heartbeat-ref", cfg: b.cfg, trace: true, sizes: sizes, beats: upto(len(sizes))}
		batched := ref
		batched.name, batched.batched, batched.want, batched.how = b.name+"-heartbeat", true, ref.name, exact
		list = append(list, ref, batched)
	}
	return list
}

// crashPoints is how many kills a crash composition injects.
const crashPoints = 3

// crashMode runs every strategy supervised, uninterrupted (its baseline)
// and killed at seed-drawn offsets, where it recovers from checkpoints
// (kslack also from the log alone, and with an adaptive bound; the hybrid
// under a latency objective that makes it switch mid-trial); some with
// their newest checkpoint damaged after each kill, which must fall back to
// the previous one or the log transparently. The kills must not show: the
// killed run equals its baseline, which equals the same Config in memory
// (the engine alone judges lateness, so this holds beyond the bound too),
// which within the bound equals the oracle over first occurrences.
func crashMode(t *trial) []composition {
	c := t.c
	crashes := drawOffsets(rand.New(rand.NewSource(c.Seed^0x0ff5e75)), len(c.Arrival), crashPoints)
	native, kslack, speculate := strategy(oostream.StrategyNative, c.K), strategy(oostream.StrategyKSlack, c.K), strategy(oostream.StrategySpeculate, c.K)
	// The adaptive levee may derive a K below the case's and drop what the
	// oracle keeps, so it is held to its own runs only.
	adaptive := &oostream.Config{Strategy: oostream.StrategyKSlack, K: c.K, Adaptive: oostream.Adaptive{Enabled: true, DecisionEvery: 8}}
	want := truth
	if c.K < gen.MaxDelay(c.Arrival) {
		want = ""
	}
	list := []composition{
		{name: "memory-native", cfg: native, want: want},
		{name: "memory-kslack", cfg: kslack, want: want},
		{name: "memory-speculate", cfg: speculate, want: want},
		{name: "memory-kslack-adaptive", cfg: adaptive},
		{name: "memory-hybrid", cfg: hybridSwitching(c.K), want: want},
	}
	for _, d := range []struct {
		name, memory string
		cfg          *oostream.Config
		every        int
		corrupt      bool
	}{
		{"crash-native", "memory-native", native, 7, false},
		{"crash-native-corrupt", "memory-native", native, 5, true},
		{"crash-kslack", "memory-kslack", kslack, 0, false},
		{"crash-kslack-checkpointed", "memory-kslack", kslack, 6, true},
		{"crash-kslack-adaptive", "memory-kslack-adaptive", adaptive, 5, false},
		{"crash-speculate", "memory-speculate", speculate, 0, false},
		{"crash-speculate-checkpointed", "memory-speculate", speculate, 6, true},
		{"crash-hybrid-checkpointed", "memory-hybrid", list[4].cfg, 5, false},
	} {
		base := composition{name: d.name + "-baseline", cfg: d.cfg, durable: true, every: d.every, want: d.memory, how: keys}
		killed := base
		killed.name, killed.crashes, killed.corrupt, killed.want = d.name, crashes, d.corrupt, base.name
		list = append(list, base, killed)
	}
	return list
}

// batchCrashMode kills a supervised native engine before up to three
// seed-drawn batches, and after each recovery redelivers the whole batch
// before the kill (an at-least-once batch source): it must emit what the
// uninterrupted batched run does, which emits what the per-event run does,
// and the redelivered events nothing. go test runs it; it is not one of
// the soaked Modes.
func batchCrashMode(t *trial) []composition {
	rng := rand.New(rand.NewSource(t.c.Seed ^ 0xbc7a5))
	sizes := randomSizes(rng, len(t.c.Arrival))
	perEvent := composition{name: "per-event", cfg: strategy(oostream.StrategyNative, t.c.K), durable: true, every: 7}
	batched := perEvent
	batched.name, batched.sizes, batched.batched, batched.want, batched.how = "batched", sizes, true, perEvent.name, keys
	crashed := batched
	crashed.name, crashed.crashes, crashed.want = "crashed", drawOffsets(rng, len(sizes), crashPoints), batched.name
	return []composition{perEvent, batched, crashed}
}

// hybridSwitching is the hybrid configuration the crash differential runs:
// a static bound K under a latency objective below it, so the engine leaves
// speculation for sealing at its first decision past the dwell, 16 admitted
// events in (a static bound that dominates the disorder keeps the oracle's
// answer across the switch).
func hybridSwitching(k event.Time) *oostream.Config {
	return &oostream.Config{Strategy: oostream.StrategyHybrid, K: k, Adaptive: oostream.Adaptive{
		DecisionEvery: 8, SLO: oostream.SLO{MaxLatency: max(k-1, 1)},
	}}
}

// multiMode holds a QuerySet to the per-query oracle and to independent
// engines: the shared admission pass, the event-type index and the prefix
// gates must be pure optimizations. A one-query set and the kslack engine
// are one composition — the K-slack buffer in front of the kernel at K=0 —
// and must emit the same matches with the same lineage; emission instants
// aside, since the set's prefix gates withhold events that cannot extend a
// match, so its kernel's clock, which decides when a negation result seals,
// trails the engine's. A query joining or leaving at a seed-drawn offset
// sees exactly what the shared buffer releases while it is registered; in
// memory the offset is a heartbeat boundary. A set restored from a
// mid-stream checkpoint continues to the identical output; the late query's
// output equals a native engine fed only what that query saw (a subsequence
// of a K-bounded arrival is K-bounded). A supervised set
// survives kills with live mutations (each forces a checkpoint, so the
// registry must survive recovery), and, with a static registry, damaged
// checkpoints. The two are exclusive by design: a mutation's durability
// lives in the checkpoint it forces, so losing it loses the mutation.
func multiMode(t *trial) []composition {
	c, n := t.c, len(t.firsts)
	if n == 0 {
		return nil
	}
	// A fan-out cadence drawn from the seed, so that AdvanceEvery fires on
	// trial-sized streams; by I9 it never changes any query's output.
	set := func(prov bool) *oostream.QuerySetConfig {
		return &oostream.QuerySetConfig{K: c.K, Provenance: prov, AdvanceEvery: 1 + int(uint64(c.Seed)%7)}
	}
	all, three := []int{0, 1, 2, 3}, []int{0, 1, 2}
	draw := rand.New(rand.NewSource(c.Seed ^ 0x11fe7a))
	regAt, unregAt := draw.Intn(n+1), draw.Intn(n+1)
	rng := rand.New(rand.NewSource(c.Seed ^ 0x7c4a5e))
	killRegAt, killUnregAt := rng.Intn(n+1), rng.Intn(n+1)
	var crashes []int
	for _, off := range drawOffsets(rng, n, crashPoints+2) {
		if off != killRegAt && off != killUnregAt && len(crashes) < crashPoints {
			crashes = append(crashes, off)
		}
	}
	live := composition{name: "multi-live", set: set(false), queries: three, want: truth,
		registers: []int{regAt}, unregisters: []int{unregAt}, beats: []int{regAt, unregAt}}
	list := []composition{{name: "multi", set: set(false), queries: all, want: truth}}
	for i := range all {
		kslack := fmt.Sprintf("multi-kslack/q%d", i)
		list = append(list,
			composition{name: fmt.Sprintf("multi-native/q%d", i), cfg: strategy(oostream.StrategyNative, c.K), query: i, want: truth},
			composition{name: kslack, cfg: withProvenance(strategy(oostream.StrategyKSlack, c.K)), query: i, want: truth},
			composition{name: fmt.Sprintf("multi-one/q%d", i), set: &oostream.QuerySetConfig{K: c.K, Provenance: true},
				queries: []int{i}, want: kslack, how: content})
	}
	killed := composition{name: "multi-crash-baseline", set: set(false), queries: three, durable: true, every: 5,
		registers: []int{killRegAt}, unregisters: []int{killUnregAt}, want: truth}
	damaged := composition{name: "multi-crash-corrupt-baseline", set: set(false), queries: three, durable: true, every: 5, want: truth}
	list = append(list,
		composition{name: "multi-batch", set: set(false), queries: all, want: "multi", how: exact, batched: true,
			sizes: randomSizes(rand.New(rand.NewSource(c.Seed^0x6ba7c9)), n)},
		composition{name: "multi-prov", set: set(true), queries: all, want: truth, lineage: true},
		composition{name: "multi-checkpoint", set: set(false), queries: all, restores: []int{n / 2}, want: "multi", how: exact},
		live,
		composition{name: "multi-live-native/q3", cfg: strategy(oostream.StrategyNative, c.K), query: lateQuery, trace: true, want: live.name,
			input: func(t *trial) ([]event.Event, event.Time, error) {
				return t.seen(live, lateQuery, t.firsts), t.c.K, nil
			}},
		killed, damaged)
	killed.name, killed.crashes, killed.want, killed.how = "multi-crash", crashes, killed.name, keys
	damaged.name, damaged.crashes, damaged.corrupt, damaged.want, damaged.how = "multi-crash-corrupt", crashes, true, damaged.name, keys
	return append(list, killed, damaged)
}

// staticMax feeds what the adaptive run `of` admitted, at the largest bound
// it published.
func staticMax(of string) func(*trial) ([]event.Event, event.Time, error) {
	return func(t *trial) ([]event.Event, event.Time, error) {
		src := t.runs[of]
		if src == nil || src.snap == nil || src.snap.Adaptive == nil {
			return nil, 0, errors.New("no adaptive state in the snapshot of " + of)
		}
		return src.admitted(src.fed), src.snap.Adaptive.MaxKObserved, nil
	}
}

// adaptiveMode holds the adaptive subsystem's three claims, each reducible
// to the oracle on a sorted event set. Dynamic K is a pure admission
// filter: the run equals the oracle over what it admitted, and a static run
// at the largest K it published, fed only that, drops nothing and equals
// it. Shedding (a buffer of three) is fully traced and counted, and exact
// over the survivors. Forced switches of the hybrid, at a third and two
// thirds of the stream, keep the oracle's answer under a dominating static
// bound, and the admitted events' under adaptive K.
func adaptiveMode(t *trial) []composition {
	k, n := t.c.K, len(t.firsts)
	if n == 0 {
		return nil
	}
	// An engine that must adapt: it starts at a quarter of the case bound
	// and may grow back up to it, deciding often enough that short trials
	// see several decisions.
	limits := oostream.Adaptive{Enabled: true, MinK: 1, DecisionEvery: 16, ShrinkAfter: 2, Limits: oostream.Limits{MaxLag: k}}
	native := &oostream.Config{Strategy: oostream.StrategyNative, K: 1 + k/4, Adaptive: limits}
	shed := *native
	shed.Strategy, shed.Adaptive.Limits.MaxBufferedEvents = oostream.StrategyKSlack, 3
	switches := []int{n/3 + 1, 2*n/3 + 1}
	ctrl := adaptive.Config{Enabled: true, MinK: 1, DecisionEvery: 16, ShrinkAfter: 2, Limits: adaptive.Limits{MaxLag: k}}
	return []composition{
		{name: "adaptive-native", cfg: native, trace: true, want: truth},
		{name: "adaptive-native-staticmax", cfg: strategy(oostream.StrategyNative, 0), input: staticMax("adaptive-native"), trace: true, want: "adaptive-native"},
		{name: "adaptive-kslack-shed", cfg: &shed, trace: true, want: truth},
		{name: "hybrid-switch(startNative=false)", meta: &metaSpec{k: k}, switches: switches, want: truth},
		{name: "hybrid-switch(startNative=true)", meta: &metaSpec{k: k, startNative: true}, switches: switches, want: truth},
		{name: "hybrid-adaptive", meta: &metaSpec{ctrl: ctrl, k: 1 + k/4}, switches: switches, trace: true, want: truth},
		{name: "hybrid-facade", cfg: strategy(oostream.StrategyHybrid, k), want: truth},
		// The controller's state (estimator, frontier, published bounds)
		// survives a mid-stream checkpoint.
		{name: "adaptive-checkpoint", cfg: native, restores: []int{n / 2}, want: "adaptive-native"},
	}
}

// aggMode holds every strategy's windows to aggTruth — the speculative
// run's previews and revisions net out (I7 lifted to windows) — through
// heartbeats, batches, lineage and a checkpoint round-trip.
func aggMode(t *trial) []composition {
	k, n := t.c.K, len(t.firsts)
	native, speculate := strategy(oostream.StrategyNative, k), strategy(oostream.StrategySpeculate, k)
	return []composition{
		{name: "agg-native", cfg: native, want: truth},
		{name: "agg-kslack", cfg: strategy(oostream.StrategyKSlack, k), want: truth},
		{name: "agg-speculate", cfg: speculate, want: truth},
		{name: "agg-hybrid", cfg: strategy(oostream.StrategyHybrid, k), want: truth},
		{name: "agg-native-heartbeat", cfg: native, beats: upto(n), want: truth},
		{name: "agg-native-batch", cfg: native, batched: true, sizes: randomSizes(rand.New(rand.NewSource(t.c.Seed^0x5eedba7c4)), n), want: truth},
		{name: "agg-native-prov", cfg: withProvenance(native), want: truth, lineage: true},
		{name: "agg-checkpoint", cfg: native, restores: []int{n / 2}, want: "agg-native", how: exact},
		{name: "agg-checkpoint-speculate", cfg: speculate, restores: []int{n / 2}, want: "agg-speculate", how: exact},
	}
}
