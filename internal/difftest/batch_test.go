package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"oostream/internal/event"
)

// batchCrashTrialCount bounds the crash-point batch differential; each
// trial spins up several supervised engines with temp directories, so the
// budget is smaller than the in-memory trials'.
const batchCrashTrialCount = 25

// TestBatchDifferentialTrials is the batch≡per-event front door: for
// trialCount random (query, stream, disorder) cases, every strategy run
// through ProcessBatch under singleton, whole-stream, and random partition
// schemes must reproduce the per-event run exactly — matches, lineage, and
// trace-op multisets.
func TestBatchDifferentialTrials(t *testing.T) {
	n := trialCount
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			if fail := Run(Batch, Generate(seed)); fail != nil {
				t.Fatalf("%s", Shrink(fail).Report())
			}
		})
	}
}

// TestBatchCrashNoDoubleEmit pins the supervised batch entry's durability
// contract through the batch-crash mode: a run whose process is killed
// between batches — with the entire previous batch redelivered after each
// recovery, simulating an at-least-once batch source — must reproduce the
// uninterrupted batched run's ordered match sequence, and every redelivered
// event must be suppressed by admission (zero emissions past the commit
// horizon). The uninterrupted batched run is itself checked against the
// per-event supervised run first, so the batch entry cannot hide behind a
// consistently-wrong baseline.
func TestBatchCrashNoDoubleEmit(t *testing.T) {
	n := batchCrashTrialCount
	if testing.Short() {
		n = 6
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			if fail := Run(batchCrash, Generate(seed)); fail != nil {
				t.Fatalf("%s", Shrink(fail).Report())
			}
		})
	}
}

// TestBatchPurgeCadenceWithLateEvent pins the shape that would make
// deferring purges to the batch boundary visible if a bound-violating event
// were ever processed: A@0's window (4) expires once B@10 lifts the safe
// clock, and the late B@2 would then match A@0 only if the purge between
// them was skipped. The kernel drops it on both paths, so the Batch mode's
// halved-K configurations (PurgeEvery=1) agree — random trials rarely
// compose this exact shape, so it is checked here deterministically.
func TestBatchPurgeCadenceWithLateEvent(t *testing.T) {
	c := Case{
		Seed:  -1,
		Query: "PATTERN SEQ(A x0, B x1) WHERE x0.id = x1.id WITHIN 4",
		K:     2,
		Arrival: []event.Event{
			Ev("A", 0, 1, 1, 0),
			Ev("B", 10, 2, 99, 0), // lifts the clock; expires A@0's window
			Ev("B", 2, 3, 1, 0),   // bound violator: binds A@0 only if unpurged
		},
	}
	if fail := Run(Batch, c); fail != nil {
		t.Fatalf("%s", fail.Report())
	}
}

// TestBatchSchemeCoverage asserts the random partition scheme actually
// mixes chunk sizes — singleton and multi-event batches both occur — so a
// generator regression cannot hollow the differential out to one shape.
func TestBatchSchemeCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ones, big, total int
	for trial := 0; trial < 200; trial++ {
		n := 12 + rng.Intn(37)
		sizes := randomSizes(rng, n)
		sum := 0
		for _, s := range sizes {
			sum += s
			total++
			if s == 1 {
				ones++
			}
			if s > 1 {
				big++
			}
		}
		if sum != n {
			t.Fatalf("sizes %v sum to %d, want %d", sizes, sum, n)
		}
	}
	if ones == 0 || big == 0 {
		t.Fatalf("degenerate scheme distribution: %d singleton, %d larger chunks of %d", ones, big, total)
	}
}
