package difftest

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"oostream"
	"oostream/internal/event"
	"oostream/internal/plan"
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
			if fail := RunBatch(Generate(seed)); fail != nil {
				t.Fatalf("%s", ShrinkBatch(fail).Report())
			}
		})
	}
}

// TestBatchCrashNoDoubleEmit pins the supervised batch entry's durability
// contract: a run whose process is killed between batches — with the
// entire previous batch redelivered after each recovery, simulating an
// at-least-once batch source — must reproduce the uninterrupted batched
// run's exact ordered match sequence, and every redelivered event must be
// suppressed by admission (zero emissions past the commit horizon). The
// uninterrupted batched run is itself checked against the per-event
// supervised run first, so the batch entry cannot hide behind a
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
			c := Generate(seed)
			rng := rand.New(rand.NewSource(seed ^ 0xbc7a5))
			sizes := randomSizes(rng, len(c.Arrival))
			mk := func(dir string) (*oostream.Engine, error) {
				q, err := oostream.Compile(c.Query, Schema())
				if err != nil {
					return nil, err
				}
				return oostream.NewSupervisedEngine(q,
					oostream.Config{Strategy: oostream.StrategyNative, K: c.K},
					oostream.SupervisorConfig{Dir: dir, CheckpointEvery: 7, DisableFsync: true})
			}

			perEvent, err := runSupervised(mk, c.Arrival)
			if err != nil {
				t.Fatalf("per-event baseline: %v", err)
			}
			baseline, err := runSupervisedBatched(mk, c.Arrival, sizes, nil)
			if err != nil {
				t.Fatalf("batched baseline: %v", err)
			}
			if diff := sameOrdered(perEvent, baseline); diff != "" {
				t.Fatalf("batched vs per-event supervised run: %s\nbatch sizes: %s", diff, sizesString(sizes))
			}

			// Kill before up to three seed-derived batch indices.
			crashes := drawOffsets(rng, len(sizes), crashPoints)
			crashed, err := runSupervisedBatched(mk, c.Arrival, sizes, crashes)
			if err != nil {
				t.Fatalf("crashed batched run: %v", err)
			}
			if diff := sameOrdered(baseline, crashed); diff != "" {
				t.Fatalf("crashed vs uninterrupted batched run: %s\nbatch sizes: %s crashes: %v",
					diff, sizesString(sizes), crashes)
			}
		})
	}
}

// runSupervisedBatched drives the stream through a durable Engine's
// ProcessBatch in the given chunks. When crashes is non-nil, the engine is
// killed before each listed batch index and recovered from the same
// directory; the previous batch is then redelivered whole and must emit
// nothing (its matches were committed before the crash).
func runSupervisedBatched(mk func(string) (*oostream.Engine, error), events []event.Event, sizes []int, crashes []int) ([]plan.Match, error) {
	dir, err := os.MkdirTemp("", "oobatchcrash-*")
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
	pos, ci := 0, 0
	var prev []event.Event
	for bi := 0; bi <= len(sizes); bi++ {
		for ci < len(crashes) && crashes[ci] == bi {
			ci++
			en.Kill()
			en, err = mk(dir)
			if err != nil {
				return nil, err
			}
			ms, err := en.Start()
			if err != nil {
				return nil, fmt.Errorf("recover before batch %d: %w", bi, err)
			}
			out = append(out, ms...)
			if len(prev) > 0 {
				dup := en.ProcessBatch(prev)
				if err := en.Err(); err != nil {
					return nil, fmt.Errorf("redeliver batch %d: %w", bi-1, err)
				}
				if len(dup) != 0 {
					return nil, fmt.Errorf("redelivered batch %d emitted %d matches past the commit horizon", bi-1, len(dup))
				}
			}
		}
		if bi == len(sizes) {
			break
		}
		batch := events[pos : pos+sizes[bi]]
		pos += sizes[bi]
		out = append(out, en.ProcessBatch(batch)...)
		if err := en.Err(); err != nil {
			return nil, fmt.Errorf("batch %d: %w", bi, err)
		}
		prev = batch
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

// TestBatchPurgeCadenceWithLateEvent pins the shape that would make
// deferring purges to the batch boundary visible if a bound-violating event
// were ever processed: A@0's window (4) expires once B@10 lifts the safe
// clock, and the late B@2 would then match A@0 only if the purge between
// them was skipped. The kernel drops it on both paths, so RunBatch's
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
	if fail := RunBatch(c); fail != nil {
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
