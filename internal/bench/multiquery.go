package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"oostream"
	"oostream/internal/gen"
)

// Host records the machine the benchmark ran on, stamped into JSON output
// (BENCH_native.json) so recorded numbers carry their provenance.
type Host struct {
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
}

// HostInfo captures the current process's host metadata.
func HostInfo() *Host {
	return &Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

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

// MultiQuery measures shared-admission multi-query throughput: one
// QuerySet holding q registered queries versus a loop over q independent
// single-query engines fed the same stream in the same run. Both sides run
// the native strategy at the same K; the QuerySet pays admission
// (reorder/purge) once per event and uses its event-type index plus prefix
// gating to skip (query, event) pairs that cannot extend a match, while
// the loop pays full admission per (engine, event) pair. Rows report both
// aggregate throughputs, the speedup, the measured dispatch rate per
// event, and an exactness check of the QuerySet's per-query output against
// the corresponding independent engine.
func MultiQuery(s Scale, counts []int) *Table {
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
	for _, n := range counts {
		queries := multiQueries(n, int64(100+n))
		cfg := oostream.Config{Strategy: oostream.StrategyNative, K: k}

		// Loop baseline: q independent engines, each re-admitting the
		// full stream. Reps interleave with the QuerySet reps below via
		// best-of so load drift hits both sides alike.
		reps := 3
		var qsBest, loopBest time.Duration = -1, -1
		var qsMatches []oostream.Match
		loopMatches := make([][]oostream.Match, n)
		var dispatched uint64
		for rep := 0; rep < reps; rep++ {
			set := oostream.MustNewQuerySet(oostream.QuerySetConfig{K: cfg.K})
			for i, q := range queries {
				if err := set.Register(fmt.Sprintf("q%d", i), q); err != nil {
					panic(err)
				}
			}
			start := time.Now()
			ms := set.ProcessAll(events)
			if d := time.Since(start); qsBest < 0 || d < qsBest {
				qsBest = d
			}
			qsMatches = ms
			dispatched = 0
			for _, st := range set.Stats() {
				dispatched += st.Dispatched
			}

			start = time.Now()
			for i, q := range queries {
				en := oostream.MustNewEngine(q, cfg)
				loopMatches[i] = en.ProcessAll(events)
			}
			if d := time.Since(start); loopBest < 0 || d < loopBest {
				loopBest = d
			}
		}
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

		qsTput := float64(len(events)) / qsBest.Seconds()
		loopTput := float64(len(events)) / loopBest.Seconds()
		t.AddRow(fmtInt(n), fmtKevS(qsTput), fmtKevS(loopTput),
			fmt.Sprintf("%.1f", qsTput/loopTput),
			fmt.Sprintf("%.2f", float64(dispatched)/float64(len(events))),
			fmt.Sprintf("%v", exact))
	}
	t.Notes = append(t.Notes,
		"expected: speedup grows with query count — the QuerySet admits each event once and its type index touches only the ~1% of queries whose first step or gate matches, while the loop baseline re-admits the stream per engine",
		"disp/ev is inner-engine dispatches per admitted event; well under 1 means the index and prefix gates are doing the filtering")
	return t
}

// E19MultiQuery is the registered experiment: the MultiQuery sweep at
// 10, 100, and 1000 registered queries.
func E19MultiQuery(s Scale) *Table {
	return MultiQuery(s, []int{10, 100, 1000})
}
