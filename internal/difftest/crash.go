package difftest

import (
	"fmt"
	"math/rand"
	"os"
	"slices"

	"oostream"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/netsim"
	"oostream/internal/oracle"
	"oostream/internal/plan"
	"oostream/internal/recovery"
)

// crashPoints is how many kill/recover cycles RunCrash injects per
// configuration.
const crashPoints = 3

// RunCrash executes the crash-point differential: for every strategy it
// runs the supervised engine uninterrupted, then again with the process killed at
// seed-derived offsets and recovered from durable state — re-delivering
// the event before each crash point to exercise duplicate admission — and
// requires the exact ordered match sequence of the two runs to agree,
// with zero duplicate or lost emissions. Every strategy recovers from
// checkpoints (kslack also from the log alone, and with an adaptive bound;
// the hybrid under a latency objective that makes it switch mid-trial);
// native, kslack and speculate are also run with their newest checkpoint
// corrupted after each crash, which must fall back to the previous valid one
// (or the log) transparently. Every uninterrupted supervised run must also
// equal, element for element, the same Config run in memory over the first
// occurrence of each Seq: the engine alone judges lateness, so this holds
// beyond the bound too, where the oracle's answer is not the engines'.
//
// Like Run it is a pure function of the Case (temp-directory naming
// aside), so shrinking against it is sound.
func RunCrash(c Case) *Failure {
	p, err := plan.ParseAndCompile(c.Query, Schema())
	if err != nil {
		return &Failure{Case: c, Check: "compile", Diff: err.Error()}
	}
	q, err := oostream.Compile(c.Query, Schema())
	if err != nil {
		return &Failure{Case: c, Check: "compile", Diff: err.Error()}
	}

	// Admission deduplicates by Seq, so a fault-injected arrival stream
	// (GenerateFaulty) reduces to its first-occurrence substream, firsts.
	// Truth is the oracle over firsts sorted. For a duplicate-free stream
	// this is the plain sorted stream.
	seen := make(map[event.Seq]bool, len(c.Arrival))
	firsts := make([]event.Event, 0, len(c.Arrival))
	for _, e := range c.Arrival {
		if !seen[e.Seq] {
			seen[e.Seq] = true
			firsts = append(firsts, e)
		}
	}
	sorted := slices.Clone(firsts)
	event.SortByTime(sorted)
	truth := oracle.Matches(p, sorted)

	// Crash offsets are a pure function of the seed: offset i kills the
	// process right before offering arrival i (len(Arrival) = before the
	// flush).
	rng := rand.New(rand.NewSource(c.Seed ^ 0x0ff5e75))
	crashes := drawOffsets(rng, len(c.Arrival), crashPoints)

	type crashCfg struct {
		name    string
		cfg     oostream.Config
		every   int  // SupervisorConfig.CheckpointEvery
		truth   bool // also compare the baseline against the oracle
		corrupt bool
	}
	native := oostream.Config{Strategy: oostream.StrategyNative, K: c.K}
	kslack := oostream.Config{Strategy: oostream.StrategyKSlack, K: c.K}
	speculate := oostream.Config{Strategy: oostream.StrategySpeculate, K: c.K}
	// The adaptive levee may derive a K below the case's and drop what the
	// oracle keeps, so it is held to its own uninterrupted run and to memory.
	adaptive := oostream.Config{Strategy: oostream.StrategyKSlack, K: c.K, Adaptive: oostream.Adaptive{Enabled: true, DecisionEvery: 8}}
	cfgs := []crashCfg{
		{name: "crash-native", cfg: native, every: 7, truth: true},
		{name: "crash-native-corrupt", cfg: native, every: 5, truth: true, corrupt: true},
		{name: "crash-kslack", cfg: kslack, truth: true},
		{name: "crash-kslack-checkpointed", cfg: kslack, every: 6, truth: true, corrupt: true},
		{name: "crash-kslack-adaptive", cfg: adaptive, every: 5},
		{name: "crash-speculate", cfg: speculate},
		{name: "crash-speculate-checkpointed", cfg: speculate, every: 6, truth: true, corrupt: true},
		{name: "crash-hybrid-checkpointed", cfg: hybridSwitching(c.K), every: 5, truth: true},
	}
	// Beyond the bound some arrivals are late and the engines drop them, so
	// the oracle over every event is no longer their answer.
	withinBound := c.K >= gen.MaxDelay(c.Arrival)

	for _, cfg := range cfgs {
		mk := func(dir string) (*oostream.Engine, error) {
			return oostream.NewSupervisedEngine(q, cfg.cfg, oostream.SupervisorConfig{
				Dir: dir, CheckpointEvery: cfg.every, DisableFsync: true,
			})
		}
		want, err := runSupervised(mk, c.Arrival)
		if err != nil {
			return &Failure{Case: c, Check: cfg.name + "-baseline", Diff: err.Error(), Truth: len(truth)}
		}
		if cfg.truth && withinBound {
			if ok, diff := plan.SameResults(truth, want); !ok {
				return &Failure{Case: c, Check: cfg.name + "-truth", Diff: diff, Truth: len(truth)}
			}
		}
		mem, err := oostream.NewEngine(q, cfg.cfg)
		if err != nil {
			return &Failure{Case: c, Check: cfg.name + "-memory", Diff: err.Error(), Truth: len(truth)}
		}
		if diff := sameOrdered(mem.ProcessAll(firsts), want); diff != "" {
			return &Failure{Case: c, Check: cfg.name + "-memory", Diff: "in memory against durable: " + diff, Truth: len(truth)}
		}
		got, err := runCrashed(mk, c.Arrival, crashes, cfg.corrupt)
		if err != nil {
			return &Failure{Case: c, Check: cfg.name, Diff: err.Error(), Truth: len(truth)}
		}
		if diff := sameOrdered(want, got); diff != "" {
			return &Failure{Case: c, Check: cfg.name, Diff: diff, Truth: len(truth)}
		}
	}
	return nil
}

// hybridSwitching is the hybrid configuration the crash differential runs:
// a static bound K under a latency objective below it, so the engine leaves
// speculation for sealing at its first decision past the dwell, 16 admitted
// events in (a static bound that dominates the disorder keeps the oracle's
// answer across the switch).
func hybridSwitching(k event.Time) oostream.Config {
	return oostream.Config{Strategy: oostream.StrategyHybrid, K: k, Adaptive: oostream.Adaptive{
		DecisionEvery: 8, SLO: oostream.SLO{MaxLatency: max(k-1, 1)},
	}}
}

// GenerateFaulty derives a crash trial whose arrival stream passed
// through the fault-injecting delivery simulator: deliveries are dropped,
// duplicated (same Seq, later arrival), and held by stalled sources. The
// duplicates make the admission layer's dedup load-bearing — without it
// the crashed and uninterrupted runs would both double-count, but truth
// (first occurrences) would diverge. One trial in three draws K below the
// arrivals' disorder, and one in eight lies below zero.
func GenerateFaulty(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	query, qtypes := genQuery(rng)
	sorted := genStream(rng, qtypes)
	cfg := netsim.Config{
		Sources: 1 + rng.Intn(3),
		Link: netsim.LinkConfig{
			BaseDelay:  event.Time(rng.Intn(3)),
			JitterMean: 1 + 5*rng.Float64(),
			HeavyTailP: 0.1,
			HeavyTailX: 4,
		},
	}
	f := netsim.FaultConfig{
		DropP:        0.05 * rng.Float64(),
		DupP:         0.05 + 0.15*rng.Float64(),
		DupDelayMean: 10,
		StallP:       0.03 * rng.Float64(),
		StallMean:    20,
	}
	arrival, _, _, _, err := netsim.DeliverFaults(sorted, cfg, f, rng)
	if err != nil { // unreachable for the ranges above
		panic(err)
	}
	k := gen.MaxDelay(arrival)
	if k > 1 && rng.Intn(3) == 0 {
		// A bound below the disorder: some arrivals are late.
		k = rng.Int63n(k)
	}
	if k == 0 {
		k = 1
	}
	if rng.Intn(8) == 0 {
		// The whole stream below zero, where no clock may start at 0.
		var top event.Time
		for _, e := range arrival {
			top = max(top, e.TS)
		}
		shift := top + 1 + rng.Int63n(1000)
		for i := range arrival {
			arrival[i].TS -= shift
		}
	}
	return Case{Seed: seed, Query: query, K: k, Arrival: arrival}
}

// drawOffsets picks up to n distinct offsets in [0, limit], sorted.
func drawOffsets(rng *rand.Rand, limit, n int) []int {
	picked := make(map[int]bool, n)
	for len(picked) < n && len(picked) <= limit {
		picked[rng.Intn(limit+1)] = true
	}
	offs := make([]int, 0, len(picked))
	for off := range picked {
		offs = append(offs, off)
	}
	for i := 1; i < len(offs); i++ {
		for j := i; j > 0 && offs[j] < offs[j-1]; j-- {
			offs[j], offs[j-1] = offs[j-1], offs[j]
		}
	}
	return offs
}

// runSupervised drives one uninterrupted supervised run in a fresh
// directory.
func runSupervised(mk func(string) (*oostream.Engine, error), events []event.Event) ([]plan.Match, error) {
	dir, err := os.MkdirTemp("", "oocrash-base-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	en, err := mk(dir)
	if err != nil {
		return nil, err
	}
	defer en.Close()
	out, err := en.Start()
	if err != nil {
		return nil, err
	}
	out = append(out, en.ProcessAll(events)...)
	return out, en.Err()
}

// runCrashed drives the same stream but kills the engine at each crash
// offset, recovers from the directory, and re-delivers the previous event
// (an at-least-once source) before continuing.
func runCrashed(mk func(string) (*oostream.Engine, error), events []event.Event, crashes []int, corrupt bool) ([]plan.Match, error) {
	dir, err := os.MkdirTemp("", "oocrash-kill-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	en, err := mk(dir)
	if err != nil {
		return nil, err
	}
	out, err := en.Start()
	if err != nil {
		return nil, err
	}
	ci := 0
	for i := 0; i <= len(events); i++ {
		for ci < len(crashes) && crashes[ci] == i {
			ci++
			en.Kill()
			if corrupt && recovery.CountValidCheckpoints(dir) >= 2 {
				// Exercise the fallback path. Corrupting the last valid
				// checkpoint is legitimately unrecoverable (its WAL prefix
				// was pruned when it was written), so damage is only
				// injected while a valid fallback remains.
				_ = recovery.CorruptNewestCheckpoint(dir)
			}
			en, err = mk(dir)
			if err != nil {
				return nil, err
			}
			ms, err := en.Start()
			if err != nil {
				return nil, fmt.Errorf("recover after crash at %d: %w", i, err)
			}
			out = append(out, ms...)
			if i > 0 {
				// Source retransmission: the event before the crash arrives
				// again; admission must suppress it without new emissions.
				dup := en.Process(events[i-1])
				if err := en.Err(); err != nil {
					return nil, fmt.Errorf("redeliver %d: %w", i-1, err)
				}
				if len(dup) != 0 {
					return nil, fmt.Errorf("redelivered event %d emitted %d matches", i-1, len(dup))
				}
			}
		}
		if i == len(events) {
			break
		}
		out = append(out, en.Process(events[i])...)
		if err := en.Err(); err != nil {
			return nil, fmt.Errorf("process %d: %w", i, err)
		}
	}
	out = append(out, en.Flush()...)
	if err := en.Err(); err != nil {
		return nil, err
	}
	if err := en.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// sameOrdered compares two match sequences exactly (kind and key, in
// emission order) and describes the first divergence.
func sameOrdered(want, got []plan.Match) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i].Kind != got[i].Kind || want[i].Key() != got[i].Key() {
			return fmt.Sprintf("emission %d: baseline %v %s, crashed %v %s",
				i, want[i].Kind, want[i].Key(), got[i].Kind, got[i].Key())
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("baseline emitted %d matches, crashed run %d", len(want), len(got))
	}
	return ""
}
