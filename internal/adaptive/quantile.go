package adaptive

import (
	"math/bits"

	"oostream/internal/event"
	"oostream/internal/obsv"
)

// Estimator is an online, exponentially decayed lag-quantile estimator.
// It shares the power-of-two bucket layout of obsv.Hist — bucket i counts
// values whose bit length is i, so bucket 0 holds the value 0 and bucket
// i ≥ 1 holds [2^(i−1), 2^i−1] — but keeps float counts so the whole
// histogram can be decayed multiplicatively at every decision boundary.
// Decay turns the lifetime histogram into a recency-weighted window: after
// d decision windows an observation's weight is Decay^d, so the estimate
// tracks a drifting delay distribution instead of averaging over all time.
//
// Quantile interpolates linearly inside the winning bucket, so the
// estimate's resolution is bounded by the bucket width (a factor of two),
// which is plenty for sizing a slack that gets a safety margin anyway.
//
// The zero value is ready to use. Not safe for concurrent use: the owning
// controller serializes access.
type Estimator struct {
	buckets [obsv.NumBuckets]float64
	total   float64
	// samples counts lifetime observations (undecayed), for cold-start
	// detection.
	samples uint64
	// max tracks the largest observation ever seen (undecayed).
	max event.Time
}

// Observe records one lag observation (negative lags clamp to 0).
func (e *Estimator) Observe(lag event.Time) {
	if lag < 0 {
		lag = 0
	}
	e.buckets[bits.Len64(uint64(lag))]++
	e.total++
	e.samples++
	if lag > e.max {
		e.max = lag
	}
}

// Decay multiplies every bucket by f (0 < f < 1), aging out old
// observations. Counts decayed below a small epsilon are zeroed so the
// histogram empties completely during long stable periods.
func (e *Estimator) Decay(f float64) {
	if f <= 0 || f >= 1 {
		return
	}
	const epsilon = 1e-9
	var total float64
	for i := range e.buckets {
		e.buckets[i] *= f
		if e.buckets[i] < epsilon {
			e.buckets[i] = 0
		}
		total += e.buckets[i]
	}
	e.total = total
}

// Samples returns the lifetime (undecayed) observation count.
func (e *Estimator) Samples() uint64 { return e.samples }

// Max returns the largest observation ever seen.
func (e *Estimator) Max() event.Time { return e.max }

// Quantile returns the q-quantile (0 < q ≤ 1) of the decayed distribution,
// interpolated linearly within the winning bucket. Returns 0 when the
// histogram is empty.
func (e *Estimator) Quantile(q float64) event.Time {
	if e.total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * e.total
	var cum float64
	for i, n := range e.buckets {
		if n <= 0 {
			continue
		}
		if cum+n >= target {
			if i == 0 {
				return 0
			}
			lo := event.Time(1) << uint(i-1)
			hi := event.Time(1)<<uint(i) - 1
			frac := (target - cum) / n
			est := lo + event.Time(frac*float64(hi-lo)+0.5)
			if est > e.max {
				est = e.max
			}
			return est
		}
		cum += n
	}
	return e.max
}

// export copies the decayed histogram for checkpointing (only non-zero
// buckets matter, but the fixed array keeps the format trivial).
func (e *Estimator) export() ([]float64, float64, uint64, event.Time) {
	return append([]float64(nil), e.buckets[:]...), e.total, e.samples, e.max
}

// restore loads a checkpointed histogram.
func (e *Estimator) restore(buckets []float64, total float64, samples uint64, max event.Time) {
	for i := range e.buckets {
		e.buckets[i] = 0
	}
	copy(e.buckets[:], buckets)
	e.total = total
	e.samples = samples
	e.max = max
}
