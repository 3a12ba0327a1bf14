package bench

import (
	"fmt"
	"time"

	"oostream"
	"oostream/internal/gen"
	"oostream/internal/inorder"
	"oostream/internal/obsv"
	"oostream/internal/plan"
)

// Scale sizes an experiment.
type Scale int

// Scales. Smoke keeps unit-test and `go test -bench` runs fast; Full is
// what cmd/espbench uses to regenerate the paper-scale tables.
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

// Result is one strategy's measured run.
type Result struct {
	Strategy string
	Matches  []oostream.Match
	Elapsed  time.Duration
	Metrics  oostream.Metrics
	Events   int
}

// Throughput returns events per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Events) / r.Elapsed.Seconds()
}

// Observer, when non-nil, is injected into every engine the harness
// builds, so a live HTTP endpoint (espbench -listen) can watch experiment
// counters as they run. Series accumulate across repetitions and
// experiments; they are a live view, not a measurement.
var Observer *oostream.Observer

// runOne drives a fresh engine over the events and measures it. The run is
// repeated and the best wall time kept, so single-shot scheduler noise does
// not distort the throughput tables; matches and metrics come from the
// final repetition (they are deterministic across repetitions).
func runOne(q *oostream.Query, cfg oostream.Config, events []oostream.Event) Result {
	cfg.Observer = Observer
	return runConfigured(q, cfg, events)
}

// runConfigured is runOne without the package Observer injection, for
// experiments (E16) that control instrumentation explicitly.
func runConfigured(q *oostream.Query, cfg oostream.Config, events []oostream.Event) Result {
	const reps = 3
	var (
		best    time.Duration = -1
		matches []oostream.Match
		met     oostream.Metrics
	)
	for i := 0; i < reps; i++ {
		en := oostream.MustNewEngine(q, cfg)
		start := time.Now()
		matches = en.ProcessAll(events)
		elapsed := time.Since(start)
		met = en.Metrics()
		if best < 0 || elapsed < best {
			best = elapsed
		}
	}
	return Result{
		Strategy: string(cfg.Strategy),
		Matches:  matches,
		Elapsed:  best,
		Metrics:  met,
		Events:   len(events),
	}
}

// runReference is runOne for the in-order reference kernel
// (internal/inorder), the paper's problem-analysis baseline: exact on sorted
// input, wrong by design under disorder. It is no strategy of the facade and
// runs bare, so the Result's Metrics hold what its matches carry: their
// count and their logical latency.
func runReference(q *oostream.Query, events []oostream.Event) Result {
	// A compiled query's canonical text compiles again, schema-checked once.
	p, err := plan.ParseAndCompile(q.Source(), nil)
	if err != nil {
		panic(err)
	}
	const reps = 3
	var (
		best    time.Duration = -1
		matches []oostream.Match
	)
	for i := 0; i < reps; i++ {
		en := inorder.New(p)
		start := time.Now()
		matches = nil
		for _, e := range events {
			matches = append(matches, en.Process(e)...)
		}
		matches = append(matches, en.Flush()...)
		if elapsed := time.Since(start); best < 0 || elapsed < best {
			best = elapsed
		}
	}
	met := obsv.NewSeries("")
	for _, m := range matches {
		met.AddMatch(false, m.EmitClock-m.Last().TS, 0)
	}
	return Result{
		Strategy: "inorder",
		Matches:  matches,
		Elapsed:  best,
		Metrics:  met.Snapshot(),
		Events:   len(events),
	}
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
	// ID is the experiment identifier ("E1".."E11").
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
