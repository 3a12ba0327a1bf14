package difftest

import (
	"fmt"
	"testing"
)

// adaptiveTrialCount is the randomized-trial budget for the adaptive
// differential. Each trial runs six adaptive engine configurations, so
// the budget is smaller than the main differential's.
const adaptiveTrialCount = 200

// TestAdaptiveDifferentialTrials drives the Adaptive mode over random trials:
// dynamic-K admission equivalence, shedding accounting, hybrid switch
// protocol, facade wiring, and checkpoint round-trips, all against the
// oracle.
func TestAdaptiveDifferentialTrials(t *testing.T) {
	n := adaptiveTrialCount
	if testing.Short() {
		n = 40
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			if fail := Run(Adaptive, Generate(seed)); fail != nil {
				t.Fatalf("%s", Shrink(fail).Report())
			}
		})
	}
}
