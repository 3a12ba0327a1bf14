package bench

import (
	"fmt"

	"oostream"
	"oostream/internal/engine"
	"oostream/internal/gen"
	"oostream/internal/inorder"
	"oostream/internal/plan"
)

// Scale sizes an experiment.
type Scale int

// Scales. Smoke keeps unit tests and CI fast; Full is the paper scale
// EXPERIMENTS.md records.
const (
	Smoke Scale = iota + 1
	Full
)

// items returns the RFID item count for the scale.
func (s Scale) items() int {
	if s == Full {
		return 30_000 // ~75k events with defaults
	}
	return 1_500
}

// uniformN returns the uniform-workload event count for the scale.
func (s Scale) uniformN() int {
	if s == Full {
		return 100_000
	}
	return 5_000
}

// Result is one run's output.
type Result struct {
	Strategy string
	Matches  []oostream.Match
	Metrics  oostream.Metrics
}

// runOne drives a fresh engine over the events once.
func runOne(q *oostream.Query, cfg oostream.Config, events []oostream.Event) Result {
	en := oostream.MustNewEngine(q, cfg)
	matches := en.ProcessAll(events)
	return Result{Strategy: string(cfg.Strategy), Matches: matches, Metrics: en.Metrics()}
}

// run is one engine configuration over one stream: a side of a timing cell.
type run struct {
	q      *oostream.Query
	cfg    oostream.Config
	events []oostream.Event
}

// timeRuns times the runs against each other through timeSides. It returns
// each run's result, which every rep reproduces exactly, and its throughput
// per rep in kev/s.
func timeRuns(s Scale, runs ...run) ([]Result, [][]float64) {
	results := make([]Result, len(runs))
	sides := make([]func(), len(runs))
	for i, r := range runs {
		sides[i] = func() { results[i] = runOne(r.q, r.cfg, r.events) }
	}
	times := timeSides(s.Reps(), sides...)
	tput := make([][]float64, len(runs))
	for i, r := range runs {
		tput[i] = kevS(len(r.events), times[i])
	}
	return results, tput
}

// runReference runs the in-order reference kernel (internal/inorder) once:
// the paper's problem-analysis baseline, exact on sorted input and wrong by
// design under disorder. It is the correctness contrast and is not timed.
// It is no strategy of the facade and runs bare, so the Result's Metrics
// hold what its matches carry: their count and their logical latency.
func runReference(q *oostream.Query, events []oostream.Event) Result {
	// A compiled query's canonical text compiles again, schema-checked once.
	p, err := plan.ParseAndCompile(q.Source(), nil)
	if err != nil {
		panic(err)
	}
	en := inorder.New(p)
	var matches []oostream.Match
	for _, e := range events {
		matches = append(matches, en.Process(e)...)
	}
	matches = append(matches, en.Flush()...)
	tap := engine.Env{}.Publish("inorder")
	for i := range matches {
		tap.Emit(&matches[i], matches[i].EmitClock-matches[i].Last().TS, 0)
	}
	return Result{Strategy: "inorder", Matches: matches, Metrics: tap.Snapshot()}
}

// keyNote names the key the kernel groups the query's stacks by, the same
// on every side of the table.
func keyNote(q *oostream.Query) string {
	return "key: " + keyOf(q) + ", on every side"
}

// keyOf is the query's partition key, or "none" when it is unkeyed.
func keyOf(q *oostream.Query) string {
	if k := q.AutoPartitionKey(); k != "" {
		return k
	}
	return "none"
}

// precisionRecall scores got against want as key multisets, ignoring
// retractions by first converging the stream.
func precisionRecall(want, got []oostream.Match) (precision, recall float64) {
	wantKeys := keyCounts(want)
	gotKeys := keyCounts(got)
	var hit, gotTotal, wantTotal int
	for k, n := range gotKeys {
		gotTotal += n
		if w := wantKeys[k]; w > 0 {
			if n < w {
				hit += n
			} else {
				hit += w
			}
		}
	}
	for _, n := range wantKeys {
		wantTotal += n
	}
	if gotTotal == 0 {
		precision = 1
	} else {
		precision = float64(hit) / float64(gotTotal)
	}
	if wantTotal == 0 {
		recall = 1
	} else {
		recall = float64(hit) / float64(wantTotal)
	}
	return precision, recall
}

func keyCounts(ms []oostream.Match) map[string]int {
	out := make(map[string]int, len(ms))
	for _, m := range ms {
		if m.Kind == oostream.Retract {
			out[m.Key()]--
		} else {
			out[m.Key()]++
		}
	}
	for k, n := range out {
		if n <= 0 {
			delete(out, k)
		}
	}
	return out
}

// Experiment is one reproducible figure/table.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E2".
	ID string
	// Title names the experiment.
	Title string
	// Run executes it at the given scale.
	Run func(s Scale) *Table
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"E1", "correctness vs. disorder", E1Correctness},
		{"E2", "throughput vs. disorder ratio", E2ThroughputVsDisorder},
		{"E3", "throughput vs. slack K", E3ThroughputVsK},
		{"E4", "memory vs. slack K", E4MemoryVsK},
		{"E5", "cost vs. window size", E5Window},
		{"E6", "purge ablation", E6PurgeAblation},
		{"E7", "scan-optimization ablation", E7OptAblation},
		{"E8", "result latency", E8Latency},
		{"E9", "pattern length scaling", E9PatternLength},
		{"E10", "negation under disorder", E10Negation},
		{"E11", "speculative output", E11Speculation},
		{"E12", "simulated network delivery", E12NetworkSim},
		{"E16", "observability overhead", E16Observability},
		{"E18", "batched admission throughput", E18Batch},
		{"E19", "multi-query shared admission", E19MultiQuery},
		{"E20", "adaptive disorder control under drift", E20Adaptive},
		{"E21", "windowed aggregation: run vs. FiBA tree vs. rescan", E21FibaAggregation},
		{"E22", "wall-clock latency attribution overhead", E22LatencyAttribution},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", id)
}

// Workload and query fixtures shared by the experiments.

const (
	// defaultK is the disorder bound used unless the experiment sweeps it.
	defaultK = oostream.Time(2_000)
)

// seqQuery is the plain sequence query used by the cost experiments.
func seqQuery() *oostream.Query {
	return oostream.MustCompile(
		"PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s",
		gen.RFIDSchema())
}

// negQuery is the shoplifting query (negation) of the motivating example.
func negQuery() *oostream.Query {
	return oostream.MustCompile(`
		PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
		WHERE s.id = e.id AND s.id = c.id
		WITHIN 6s`, gen.RFIDSchema())
}

// rfidSorted generates the deterministic sorted RFID stream for a scale.
func rfidSorted(s Scale, seed int64) []oostream.Event {
	return gen.RFID(gen.DefaultRFID(s.items(), seed))
}

// disorder applies the standard bounded shuffle.
func disorder(events []oostream.Event, ratio float64, k oostream.Time, seed int64) []oostream.Event {
	return gen.Shuffle(events, gen.Disorder{Ratio: ratio, MaxDelay: k, Seed: seed})
}
