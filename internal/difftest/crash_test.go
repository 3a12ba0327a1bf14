package difftest

import (
	"fmt"
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
			if fail := RunCrash(Generate(seed)); fail != nil {
				t.Fatalf("%v", fail)
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
			if fail := RunCrash(GenerateFaulty(seed)); fail != nil {
				t.Fatalf("%v", fail)
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

// TestJSONSafeStripsOnlyNaN: the durability checks run every generated
// case. jsonSafe leaves out exactly the NaN attributes (a NaN has no JSON
// form), keeps the missing and float values of a hostile stream, and does
// not touch the case it was called on.
func TestJSONSafeStripsOnlyNaN(t *testing.T) {
	var withNaN, floats, missing int
	for seed := int64(1); seed <= 200; seed++ {
		c := Generate(seed)
		d, changed := c.jsonSafe()
		if len(d.Arrival) != len(c.Arrival) {
			t.Fatalf("seed %d: %d events became %d", seed, len(c.Arrival), len(d.Arrival))
		}
		stripped := false
		for i, e := range c.Arrival {
			v, has := e.Attr("v")
			dv, dhas := d.Arrival[i].Attr("v")
			switch {
			case isNaN(v):
				stripped = true
				if dhas {
					t.Fatalf("seed %d event %d: NaN survived as %v", seed, i, dv)
				}
			case has != dhas || v != dv:
				t.Fatalf("seed %d event %d: v %v (present %v) became %v (present %v)", seed, i, v, has, dv, dhas)
			case !has:
				missing++
			case v.Kind() == event.KindFloat:
				floats++
			}
			id, _ := e.Attr("id")
			if did, _ := d.Arrival[i].Attr("id"); did != id || d.Arrival[i].Seq != e.Seq {
				t.Fatalf("seed %d event %d: identity changed", seed, i)
			}
		}
		if stripped != changed {
			t.Fatalf("seed %d: case holds a NaN: %v, jsonSafe reports a change: %v", seed, stripped, changed)
		}
		if stripped {
			withNaN++
		}
	}
	if withNaN < 10 || floats < 10 || missing < 10 {
		t.Errorf("200 seeds: %d cases with a NaN, %d float and %d missing values kept; generator drifted", withNaN, floats, missing)
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
		c, _ := Generate(seed).jsonSafe()
		q, err := oostream.Compile(c.Query, Schema())
		if err != nil {
			t.Fatal(err)
		}
		en, err := oostream.NewSupervisedEngine(q, hybridSwitching(c.K), oostream.SupervisorConfig{Dir: t.TempDir(), CheckpointEvery: 5, DisableFsync: true})
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
