package difftest

import (
	"fmt"
	"testing"

	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

// trialCount is the randomized-trial budget of the main differential test.
// The acceptance bar is ≥500 trials in well under a minute; trials run as
// parallel subtests.
const trialCount = 500

// TestDifferentialTrials is the harness's front door: trialCount seeds,
// each generating a random query × stream × disorder trial and running
// every engine configuration against the oracle. Failures are shrunk and
// reported with a paste-ready repro.
func TestDifferentialTrials(t *testing.T) {
	n := trialCount
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			if fail := Run(Generate(seed)); fail != nil {
				t.Fatalf("%s", Shrink(fail).Report())
			}
		})
	}
}

// TestGeneratorCoverage asserts the trial distribution actually exercises
// the interesting regions: negation, disorder, partitionable queries (the
// kernel keys only those), timestamp ties, and non-empty truth.
// Without this, a generator regression could silently hollow out the
// differential test.
func TestGeneratorCoverage(t *testing.T) {
	var negated, partitionable, disordered, ties, nonEmptyTruth int
	n := trialCount
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		c := Generate(seed)
		p, err := plan.ParseAndCompile(c.Query, Schema())
		if err != nil {
			t.Fatalf("seed %d: generated invalid query %q: %v", seed, c.Query, err)
		}
		if p.HasNegation() {
			negated++
		}
		if p.PartitionableBy(PartitionAttr) {
			partitionable++
		}
		if gen.OOORatio(c.Arrival) > 0 {
			disordered++
		}
		if gen.MaxDelay(c.Arrival) > c.K {
			t.Fatalf("seed %d: K=%d below realized disorder %d", seed, c.K, gen.MaxDelay(c.Arrival))
		}
		seen := map[event.Time]bool{}
		for _, e := range c.Arrival {
			if seen[e.TS] {
				ties++
				break
			}
			seen[e.TS] = true
		}
		sorted := make([]event.Event, len(c.Arrival))
		copy(sorted, c.Arrival)
		event.SortByTime(sorted)
		if len(oracle.Matches(p, sorted)) > 0 {
			nonEmptyTruth++
		}
	}
	// Each class must be a solid fraction of the run, not a fluke.
	min := n / 10
	for name, got := range map[string]int{
		"negated":       negated,
		"partitionable": partitionable,
		"disordered":    disordered,
		"ts-ties":       ties,
		"nonempty":      nonEmptyTruth,
	} {
		if got < min {
			t.Errorf("only %d/%d trials are %s; generator drifted", got, n, name)
		}
	}
}

// TestMinimizeFindsOneMinimal checks the list minimizer against a known
// predicate: "contains the poison event" must shrink to exactly that event.
func TestMinimizeFindsOneMinimal(t *testing.T) {
	var events []event.Event
	for i := 0; i < 37; i++ {
		events = append(events, Ev("A", event.Time(i), event.Seq(i+1), int64(i%3), 0))
	}
	poison := Ev("B", 100, 99, 7, 7)
	events = append(events[:20], append([]event.Event{poison}, events[20:]...)...)
	got := minimize(events, func(sub []event.Event) bool {
		for _, e := range sub {
			if e.Seq == 99 {
				return true
			}
		}
		return false
	})
	if len(got) != 1 || got[0].Seq != 99 {
		t.Fatalf("minimize kept %d events, want just the poison one: %v", len(got), got)
	}
}

// TestMinimizePairMinimal checks the minimizer on a conjunctive predicate
// (two events must both survive), the shape real divergences have.
func TestMinimizePairMinimal(t *testing.T) {
	var events []event.Event
	for i := 0; i < 24; i++ {
		events = append(events, Ev("A", event.Time(i), event.Seq(i+1), 0, 0))
	}
	has := func(sub []event.Event, seq event.Seq) bool {
		for _, e := range sub {
			if e.Seq == seq {
				return true
			}
		}
		return false
	}
	got := minimize(events, func(sub []event.Event) bool {
		return has(sub, 5) && has(sub, 19)
	})
	if len(got) != 2 {
		t.Fatalf("minimize kept %d events, want 2: %v", len(got), got)
	}
}

// TestShrinkPreservesFailure manufactures a failing case by breaking the
// bound (K below the realized disorder drops events from the native
// engine) and checks Shrink returns a smaller case that still fails.
func TestShrinkPreservesFailure(t *testing.T) {
	c := findBoundViolation(t)
	fail := Run(c)
	if fail == nil {
		t.Skip("no under-K failure manufactured; generator changed")
	}
	shrunk := Shrink(fail)
	if len(shrunk.Case.Arrival) > len(fail.Case.Arrival) {
		t.Fatalf("shrink grew the case: %d -> %d", len(fail.Case.Arrival), len(shrunk.Case.Arrival))
	}
	if rerun := Run(shrunk.Case); rerun == nil {
		t.Fatalf("shrunk case no longer fails:\n%s", shrunk.Report())
	}
	if len(shrunk.Case.Arrival) >= len(fail.Case.Arrival) && len(fail.Case.Arrival) > 4 {
		t.Fatalf("shrink made no progress on a %d-event case", len(fail.Case.Arrival))
	}
}

// findBoundViolation searches seeds for a disordered trial with matches and
// returns it with K forced below the real disorder — a guaranteed-unsound
// configuration the harness must catch and shrink.
func findBoundViolation(t *testing.T) Case {
	t.Helper()
	for seed := int64(1); seed < 400; seed++ {
		c := Generate(seed)
		d := gen.MaxDelay(c.Arrival)
		if d < 3 {
			continue
		}
		c.K = d - 2
		if Run(c) != nil {
			return c
		}
	}
	t.Skip("no seed produced an under-K divergence")
	return Case{}
}
