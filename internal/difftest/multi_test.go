package difftest

import (
	"fmt"
	"testing"
)

// multiTrialCount is the randomized-trial budget of the multi-query
// differential test; the acceptance bar is ≥500 trials.
const multiTrialCount = 500

// TestMultiDifferentialTrials runs the multi-query QuerySet differential
// over generated trials: per-query equivalence with the oracle and with
// independent engines across all strategies, batch exactness, lineage,
// live Register/Unregister, and supervised kill/recover with checkpoint
// v2 — including live mutations across crashes.
func TestMultiDifferentialTrials(t *testing.T) {
	n := multiTrialCount
	if testing.Short() {
		n = 40
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			if fail := Run(Multi, Generate(seed)); fail != nil {
				t.Fatalf("%s", Shrink(fail).Report())
			}
		})
	}
}

// TestShrinkMultiPreservesFailure plants a deliberate divergence by
// corrupting K below the stream's real disorder (so the shared buffer
// drops events the oracle sees) and checks that Shrink, re-running the Multi
// mode, keeps a failing, no-larger case.
func TestShrinkMultiPreservesFailure(t *testing.T) {
	var planted *Failure
	for seed := int64(1); seed <= 400 && planted == nil; seed++ {
		c := Generate(seed)
		if c.K < 2 {
			continue
		}
		c.K = 1
		if fail := Run(Multi, c); fail != nil {
			planted = fail
		}
	}
	if planted == nil {
		t.Skip("no K-violation failure found in 400 seeds")
	}
	shrunk := Shrink(planted)
	if shrunk == nil {
		t.Fatal("Shrink returned nil for a failing multi-query case")
	}
	if Run(Multi, shrunk.Case) == nil {
		t.Fatalf("shrunk case no longer fails:\n%s", shrunk.Report())
	}
	if len(shrunk.Case.Arrival) > len(planted.Case.Arrival) {
		t.Fatalf("shrunk case grew: %d > %d events", len(shrunk.Case.Arrival), len(planted.Case.Arrival))
	}
}
