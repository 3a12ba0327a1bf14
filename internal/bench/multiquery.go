package bench

import (
	"fmt"
	"math/rand"

	"oostream"
	"oostream/internal/gen"
)

// multiQueryTypes is the event-type universe of the multi-query workload.
// 200 types with two-type queries gives sparse overlap: each query is
// relevant to ~1% of the stream, so shared admission plus the event-type
// index should leave most (query, event) pairs undispatched.
const multiQueryTypes = 200

// multiQueryUniverse returns the type names T0..T{n-1}.
func multiQueryUniverse(n int) []string {
	types := make([]string, n)
	for i := range types {
		types[i] = fmt.Sprintf("T%d", i)
	}
	return types
}

// multiQueries compiles n two-step SEQ queries over seed-drawn type pairs
// from the universe, each equi-joined on id within a short window.
func multiQueries(n int, seed int64) []*oostream.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*oostream.Query, n)
	for i := range qs {
		a := rng.Intn(multiQueryTypes)
		b := rng.Intn(multiQueryTypes - 1)
		if b >= a {
			b++
		}
		qs[i] = oostream.MustCompile(fmt.Sprintf(
			"PATTERN SEQ(T%d x0, T%d x1) WHERE x0.id = x1.id WITHIN 400", a, b), nil)
	}
	return qs
}

// E19MultiQuery measures shared-admission multi-query throughput at 10, 100
// and 1000 registered queries: one QuerySet holding them versus a loop over
// as many independent single-query engines fed the same stream. Both sides
// run the native kernel at the same K; the QuerySet pays admission
// (reorder/purge) once per event and uses its event-type index plus prefix
// gating to skip (query, event) pairs that cannot extend a match, while
// the loop pays full admission per (engine, event) pair. Rows report both
// aggregate throughputs, the speedup, the measured dispatch rate per
// event, and an exactness check of the QuerySet's per-query output against
// the corresponding independent engine.
func E19MultiQuery(s Scale) *Table {
	const k = 200
	events := gen.Shuffle(
		gen.Uniform(s.uniformN(), multiQueryUniverse(multiQueryTypes), 8, 10, 91),
		gen.Disorder{Ratio: 0.20, MaxDelay: k, Seed: 92})
	t := &Table{
		ID:      "E19",
		Title:   "Multi-query shared admission vs. independent engines",
		Anchor:  "extension: QuerySet with per-event-type predicate indexing",
		Columns: []string{"queries", "qs kev/s", "loop kev/s", "speedup", "disp/ev", "exact"},
	}
	for _, n := range []int{10, 100, 1000} {
		queries := multiQueries(n, int64(100+n))
		cfg := oostream.Config{Strategy: oostream.StrategyNative, K: k}
		var (
			qsMatches  []oostream.Match
			dispatched uint64
		)
		loopMatches := make([][]oostream.Match, n)
		times := timeSides(s.Reps(), func() {
			set := oostream.MustNewQuerySet(oostream.QuerySetConfig{K: cfg.K})
			for i, q := range queries {
				if err := set.Register(fmt.Sprintf("q%d", i), q); err != nil {
					panic(err)
				}
			}
			qsMatches = set.ProcessAll(events)
			dispatched = 0
			for _, st := range set.Stats() {
				dispatched += st.Dispatched
			}
		}, func() {
			// The baseline: n independent engines, each re-admitting the
			// full stream.
			for i, q := range queries {
				loopMatches[i] = oostream.MustNewEngine(q, cfg).ProcessAll(events)
			}
		})
		// Per-query exactness: the QuerySet's tagged output grouped by
		// query id must equal each independent engine's output.
		byQuery := make(map[string][]oostream.Match)
		for _, m := range qsMatches {
			byQuery[m.Query] = append(byQuery[m.Query], m)
		}
		exact := true
		for i := range queries {
			if same, _ := oostream.SameResults(loopMatches[i], byQuery[fmt.Sprintf("q%d", i)]); !same {
				exact = false
			}
		}
		qsTput, loopTput := kevS(len(events), times[0]), kevS(len(events), times[1])
		t.AddRow(fmtInt(n), spread("%.0f", qsTput), spread("%.0f", loopTput),
			spread("%.1f", ratio(qsTput, loopTput)),
			fmt.Sprintf("%.2f", float64(dispatched)/float64(len(events))),
			fmt.Sprintf("%v", exact))
	}
	t.Notes = append(t.Notes,
		"expected: speedup grows with query count — the QuerySet admits each event once and its type index touches only the ~1% of queries whose first step or gate matches, while the loop baseline re-admits the stream per engine",
		"disp/ev is inner-engine dispatches per admitted event; well under 1 means the index and prefix gates are doing the filtering")
	return t
}
