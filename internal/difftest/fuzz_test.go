package difftest

import (
	"testing"
)

// FuzzDifferential is the seed-driven fuzz entry: the fuzzer explores the
// 64-bit seed space of Generate, each execution being one full differential
// trial (all strategies, checkpoint round-trip vs the oracle). Failures are shrunk before reporting, so a crash artifact's
// output contains a paste-ready regression fixture.
func FuzzDifferential(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	// Two arithmetic value predicates through a shared slot over a stream
	// with missing, float and NaN v — the construction's trigger-pair pass
	// lists: unkeyed with 12 matches, keyed with negation and 10.
	f.Add(int64(116))
	f.Add(int64(169))
	f.Fuzz(func(t *testing.T, seed int64) {
		if fail := Run(Plain, Generate(seed)); fail != nil {
			t.Fatalf("%s", Shrink(fail).Report())
		}
	})
}

// FuzzArrival lets the coverage engine control the arrival permutation
// directly: the byte string drives a Fisher–Yates shuffle of the sorted
// stream, K is measured from the realized disorder, and the trial must
// still agree with the oracle. This reaches adversarial orders (full
// reversals, block swaps) that no stochastic disorder model generates.
func FuzzArrival(f *testing.F) {
	f.Add(int64(1), []byte{0})
	f.Add(int64(7), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(int64(42), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, perm []byte) {
		if fail := Run(Plain, GeneratePermuted(seed, perm)); fail != nil {
			t.Fatalf("%s", Shrink(fail).Report())
		}
	})
}
