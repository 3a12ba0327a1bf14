package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/netsim"
)

// types is the event-type universe trials draw from. Four types keeps
// candidate lists dense (collisions and repeated-type patterns are the
// hard cases) while leaving room for irrelevant-type noise.
var types = [...]string{"A", "B", "C", "D"}

// Attribute ranges. Small domains force key collisions, which is where
// predicate and partition bugs live.
const (
	maxIDRange = 4 // ids drawn from [0, 1+rng.Intn(maxIDRange))
	valRange   = 8 // "v" drawn from [0, valRange)
)

// Schema declares the trial universe: every type carries an integer
// partition key "id" and an integer value "v". It type-checks the queries;
// nothing holds a stream to it, and genStream strays from it on purpose.
func Schema() *event.Schema {
	s := event.NewSchema()
	for _, t := range types {
		s.Declare(t, map[string]event.Kind{
			"id": event.KindInt,
			"v":  event.KindInt,
		})
	}
	return s
}

// Ev builds a trial-universe event; regression fixtures and repro output
// use it to keep checked-in cases one line per event.
func Ev(typ string, ts event.Time, seq event.Seq, id, v int64) event.Event {
	return EvWith(typ, ts, seq, id, event.Int(v))
}

// EvWith is Ev for the events that stray from the schema: v of any kind, or
// left out when it is the zero Value.
func EvWith(typ string, ts event.Time, seq event.Seq, id int64, v event.Value) event.Event {
	attrs := event.Attrs{"id": event.Int(id)}
	if v.Valid() {
		attrs["v"] = v
	}
	e := event.New(typ, ts, attrs)
	e.Seq = seq
	return e
}

// Generate derives a complete trial — query, sorted stream, disorder — from
// a single seed. Every random choice flows through one *rand.Rand, so the
// seed alone reproduces the case bit-for-bit.
func Generate(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	query, qtypes := genQuery(rng)
	sorted := genStream(rng, qtypes)
	arrival, k := genDisorder(rng, sorted)
	// Edges (ROADMAP 7(d)), one trial in 16 each: K beyond the stream's
	// span, so nothing purges before Flush; and every event its own id, key
	// cardinality without bound at trial scale.
	if rng.Intn(16) == 0 {
		k = sorted[len(sorted)-1].TS + 1
	}
	if rng.Intn(16) == 0 {
		for i, e := range arrival {
			v, _ := e.Attr("v")
			arrival[i] = EvWith(e.Type, e.TS, e.Seq, int64(e.Seq), v)
		}
	}
	return Case{Seed: seed, Query: query, K: k, Arrival: arrival}
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
	k = max(k, 1)
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

// GeneratePermuted derives query and sorted stream from the seed but takes
// the arrival order from an arbitrary byte string (a Fisher–Yates drive),
// with K measured from the realized disorder. This is the adversarial
// entry the FuzzArrival target uses: the coverage engine explores
// permutations no stochastic disorder model would produce.
func GeneratePermuted(seed int64, perm []byte) Case {
	rng := rand.New(rand.NewSource(seed))
	query, qtypes := genQuery(rng)
	sorted := genStream(rng, qtypes)
	arrival := make([]event.Event, len(sorted))
	copy(arrival, sorted)
	for i, b := len(arrival)-1, 0; i > 0 && len(perm) > 0; i-- {
		j := int(perm[b%len(perm)]) % (i + 1)
		b++
		arrival[i], arrival[j] = arrival[j], arrival[i]
	}
	k := max(gen.MaxDelay(arrival), 1)
	return Case{Seed: seed, Query: query, K: k, Arrival: arrival}
}

// genQuery builds a random SEQ query: 2–4 positive components, optional
// negation at a random gap, an id-equality chain most of the time (so the
// kernel keys its state), and occasional value predicates — one comparison, or on
// three or more components a pair with arithmetic whose slots share one
// variable. It returns the query text and the set of types the pattern
// references (stream generation biases toward them).
func genQuery(rng *rand.Rand) (string, map[string]bool) {
	n := 2 + rng.Intn(3)
	pattern, chain, negated, used := genPattern(rng, n, 0.5, 0)
	var conjuncts []string
	// The id chain, most of the time: the shard checks only run on
	// partitionable queries.
	if rng.Float64() < 0.8 {
		conjuncts = chain
	} else if rng.Float64() < 0.5 && n >= 2 {
		// A partial link or an id-inequality: not partitionable, exercises
		// the non-sharded lineage with cross predicates.
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			op := "="
			if rng.Float64() < 0.4 {
				op = "!="
			}
			conjuncts = append(conjuncts, fmt.Sprintf("x%d.id %s x%d.id", a, op, b))
		}
	}
	// Value predicates: variable-vs-variable comparisons and literal bounds.
	if n >= 3 && rng.Float64() < 0.3 {
		// Two comparisons through a shared slot, the V-shape's form. Whichever
		// slot triggers, one of the three drawn slots is then bound on a level
		// the construction walk revisits, so a predicate over exactly the
		// trigger and that slot is evaluated once per candidate and remembered
		// (adjacent and non-adjacent pairs both occur across trials).
		s := rng.Perm(n)[:3]
		conjuncts = append(conjuncts,
			fmt.Sprintf("x%d.v < x%d.v - %d", s[0], s[1], rng.Intn(3)),
			fmt.Sprintf("x%d.v > x%d.v + %d", s[2], s[0], rng.Intn(3)))
	} else if rng.Float64() < 0.45 && n >= 2 {
		a := rng.Intn(n - 1)
		b := a + 1 + rng.Intn(n-a-1)
		// The last has no pair form: it runs as a program (core.filterHolds).
		op := [...]string{"<", "<=", ">", ">=", "!=", "* 2 >"}[rng.Intn(6)]
		conjuncts = append(conjuncts, fmt.Sprintf("x%d.v %s x%d.v", a, op, b))
	}
	if rng.Float64() < 0.35 {
		i := rng.Intn(n)
		op := [...]string{"<", ">", "=", "!="}[rng.Intn(4)]
		conjuncts = append(conjuncts, fmt.Sprintf("x%d.v %s %d", i, op, rng.Intn(valRange)))
	}
	if negated && rng.Float64() < 0.3 {
		op := [...]string{"!=", "<", ">"}[rng.Intn(3)]
		conjuncts = append(conjuncts, fmt.Sprintf("n0.v %s %d", op, rng.Intn(valRange)))
	}

	window := 4 + rng.Intn(80)
	var q strings.Builder
	fmt.Fprintf(&q, "PATTERN SEQ(%s)", pattern)
	if len(conjuncts) > 0 {
		fmt.Fprintf(&q, " WHERE %s", strings.Join(conjuncts, " AND "))
	}
	fmt.Fprintf(&q, " WITHIN %d", window)
	return q.String(), used
}

// genPattern draws n component types and, with probability negP, a
// negation at a random gap — the trailing one with probability trailP. A
// component repeats an earlier one's type one time in three: positions of
// one type with no local predicate share a stack in the kernel, and most
// trials have such a pair. It returns the SEQ body over x0…x(n−1) and n0,
// the id chain linking every slot to x0 (which makes the query
// PartitionableBy("id")), whether it negates, and the types it names.
func genPattern(rng *rand.Rand, n int, negP, trailP float64) (string, []string, bool, map[string]bool) {
	comps, used := make([]string, n), map[string]bool{}
	for i := range comps {
		comps[i] = types[rng.Intn(len(types))]
		if i > 0 && rng.Intn(3) == 0 {
			comps[i] = comps[rng.Intn(i)]
		}
		used[comps[i]] = true
	}
	neg, gap := "", -1
	if rng.Float64() < negP {
		neg, gap = types[rng.Intn(len(types))], rng.Intn(n+1)
		used[neg] = true
		if trailP > 0 && rng.Float64() < trailP {
			gap = n
		}
	}
	var parts, chain []string
	for i := 0; i <= n; i++ {
		if i == gap {
			parts = append(parts, fmt.Sprintf("!(%s n0)", neg))
		}
		if i < n {
			parts = append(parts, fmt.Sprintf("%s x%d", comps[i], i))
		}
		if i > 0 && i < n {
			chain = append(chain, fmt.Sprintf("x0.id = x%d.id", i))
		}
	}
	if gap >= 0 {
		chain = append(chain, "x0.id = n0.id")
	}
	return strings.Join(parts, ", "), chain, gap >= 0, used
}

// genStream builds a sorted, sequence-numbered stream of 12–48 events with
// small timestamp gaps (including zero gaps: equal-timestamp ties are a
// historic bug class) and small id/v domains. One stream in four carries
// hostile values: v missing (the predicate errors), a float (mixed-kind
// comparison) or NaN (every ordering is false); every engine must reject
// exactly the bindings the oracle rejects.
func genStream(rng *rand.Rand, qtypes map[string]bool) []event.Event {
	biased := make([]string, 0, len(qtypes))
	for _, t := range types {
		if qtypes[t] {
			biased = append(biased, t)
		}
	}
	nEv := 12 + rng.Intn(37)
	idRange := 1 + rng.Intn(maxIDRange)
	// Key-skew spectrum for the keyed-stacks checks: occasionally force one
	// hot key (every event in one group), a medium spread, or a cardinality
	// far above the stream length (every key group near-singleton).
	switch rng.Intn(8) {
	case 0:
		idRange = 1
	case 1:
		idRange = 10
	case 2:
		idRange = 1000
	}
	hostile := rng.Intn(4) == 0
	events := make([]event.Event, 0, nEv)
	ts := event.Time(0)
	for i := 0; i < nEv; i++ {
		ts += event.Time(rng.Intn(5)) // 0..4: zero gaps make TS ties
		typ := types[rng.Intn(len(types))]
		if len(biased) > 0 && rng.Float64() < 0.7 {
			typ = biased[rng.Intn(len(biased))]
		}
		id, v := int64(rng.Intn(idRange)), event.Int(int64(rng.Intn(valRange)))
		if hostile {
			switch rng.Intn(12) {
			case 0:
				v = event.Value{}
			case 1:
				v = event.Float(float64(rng.Intn(2*valRange)) / 2)
			case 2:
				v = event.Float(math.NaN())
			}
		}
		events = append(events, EvWith(typ, ts, 0, id, v))
	}
	event.SortByTime(events)
	for i := range events {
		events[i].Seq = event.Seq(i + 1)
	}
	return events
}

// genDisorder picks an arrival order: sorted, synthetic bounded shuffle, or
// network-delivery simulation, all driven by the trial's rng. K is the
// measured realized disorder (so the bound always holds), occasionally
// padded (engines must tolerate a slack K above the true disorder).
func genDisorder(rng *rand.Rand, sorted []event.Event) ([]event.Event, event.Time) {
	var arrival []event.Event
	switch rng.Intn(4) {
	case 0: // in-order arrival: disorder-handling must be transparent
		arrival = make([]event.Event, len(sorted))
		copy(arrival, sorted)
	case 1, 2:
		arrival = gen.ShuffleRand(sorted, gen.Disorder{
			Ratio:    0.15 + 0.6*rng.Float64(),
			MaxDelay: 1 + event.Time(rng.Intn(30)),
		}, rng)
	default:
		cfg := netsim.Config{
			Sources: 1 + rng.Intn(3),
			Link: netsim.LinkConfig{
				BaseDelay:  event.Time(rng.Intn(3)),
				JitterMean: 1 + 6*rng.Float64(),
				HeavyTailP: 0.1,
				HeavyTailX: 4,
			},
		}
		if rng.Float64() < 0.3 {
			cfg.Failure = netsim.FailureConfig{MTBF: 40, OutageMean: 15}
		}
		if rng.Float64() < 0.5 {
			cfg.PartitionAttr = PartitionAttr
		}
		var err error
		arrival, _, _, err = netsim.DeliverRand(sorted, cfg, rng)
		if err != nil { // unreachable for the configs above
			panic(err)
		}
	}
	k := max(gen.MaxDelay(arrival), 1)
	if rng.Float64() < 0.3 {
		k += event.Time(rng.Intn(6))
	}
	return arrival, k
}
