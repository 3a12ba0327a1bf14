package difftest

import (
	"fmt"
	"slices"
	"testing"

	"oostream"
	"oostream/internal/event"
)

// crashTrialCount is the randomized budget of the crash differential:
// each trial runs every supervised configuration twice (uninterrupted and
// killed/recovered at three seed-derived offsets), so trials are ~10x the
// cost of a plain Run trial.
const crashTrialCount = 60

// TestCrashDifferentialTrials: for random (query, stream, disorder)
// trials, killing and recovering the supervised engine at arbitrary
// offsets must reproduce the uninterrupted run's exact ordered match
// sequence — no lost and no duplicated emissions — across all four
// strategies and a corrupted-checkpoint fallback.
func TestCrashDifferentialTrials(t *testing.T) {
	n := crashTrialCount
	if testing.Short() {
		n = 12
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			if fail := Run(Crash, Generate(seed)); fail != nil {
				t.Fatalf("%s", Shrink(fail).Report())
			}
		})
	}
}

// TestCrashDifferentialFaulty runs the crash differential over streams
// from the fault-injecting delivery simulator: dropped deliveries,
// duplicated deliveries (which admission must suppress on both runs), and
// source stalls.
func TestCrashDifferentialFaulty(t *testing.T) {
	n := crashTrialCount
	if testing.Short() {
		n = 12
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			if fail := Run(Crash, GenerateFaulty(seed)); fail != nil {
				t.Fatalf("%s", Shrink(fail).Report())
			}
		})
	}
}

// TestGenerateFaultyInjects: the faulty generator actually produces
// duplicate deliveries in a solid fraction of trials (otherwise the dedup
// property above is vacuous).
func TestGenerateFaultyInjects(t *testing.T) {
	withDups := 0
	for seed := int64(1); seed <= 50; seed++ {
		c := GenerateFaulty(seed)
		seen := make(map[event.Seq]bool)
		for _, e := range c.Arrival {
			if seen[e.Seq] {
				withDups++
				break
			}
			seen[e.Seq] = true
		}
	}
	if withDups < 20 {
		t.Fatalf("only %d/50 faulty trials contain a duplicate delivery", withDups)
	}
}

// TestDurableChecksKeepNaN: the durability checks run every generated case
// as generated, NaN attributes included (the one codec writes a NaN as
// {"float":"NaN"}, in the log and in checkpoints): the first cases that hold
// one pass the crash differential, which logs, checkpoints, kills and
// recovers every strategy over them, and the aggregate differential, whose
// MIN and MAX no longer depend on the order partials merge in.
func TestDurableChecksKeepNaN(t *testing.T) {
	holdsNaN := func(c Case) bool {
		return slices.ContainsFunc(c.Arrival, func(e event.Event) bool { v, _ := e.Attr("v"); f, _ := v.AsFloat(); return f != f })
	}
	for _, gen := range []struct {
		name string
		make func(int64) Case
		mode Mode
	}{{"crash", Generate, Crash}, {"aggregate", GenerateAgg, Agg}} {
		found := 0
		for seed := int64(1); seed <= 400 && found < 6; seed++ {
			if c := gen.make(seed); holdsNaN(c) {
				found++
				if f := Run(gen.mode, c); f != nil {
					t.Fatalf("%s seed %d: %v", gen.name, seed, f)
				}
			}
		}
		if found < 6 {
			t.Errorf("%s: %d of 400 seeds hold a NaN; generator drifted", gen.name, found)
		}
	}
}

// TestCrashHybridSwitches: the crash differential's hybrid leg is not
// vacuous — in many trials the supervised hybrid switches (37 of the first
// 60, 4 of the first 12), so the kills land
// before, between and after switches, with the switch state in the
// checkpoints it restores from.
func TestCrashHybridSwitches(t *testing.T) {
	n := crashTrialCount
	if testing.Short() {
		n = 12
	}
	switched := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		c := Generate(seed)
		q, err := oostream.Compile(c.Query, Schema())
		if err != nil {
			t.Fatal(err)
		}
		en, err := oostream.NewSupervisedEngine(q, *hybridSwitching(c.K), oostream.SupervisorConfig{Dir: t.TempDir(), CheckpointEvery: 5, DisableFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := en.Start(); err != nil {
			t.Fatal(err)
		}
		en.ProcessAll(c.Arrival)
		if err := en.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if en.Metrics().Switches > 0 {
			switched++
		}
		en.Close()
	}
	t.Logf("the hybrid switched in %d of %d trials", switched, n)
	if switched < n/4 {
		t.Errorf("the hybrid switched in only %d of %d trials", switched, n)
	}
}
