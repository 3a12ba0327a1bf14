package main

import (
	"fmt"
	"os"
	"path/filepath"

	"oostream"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/trace"
)

// workload is one fixed bytes-in→results-out job: a seeded generator, a
// disorder model, a query and a strategy. Sizes are constants so every
// event-time count depends on the seed alone.
type workload struct {
	name     string
	query    string
	strategy oostream.Strategy
	// k is both the engine's disorder bound and the generator's maximum
	// delay, so no event is ever late and failed stays 0.
	k        event.Time
	disorder float64
	// units is the generator's size argument at full scale (items, ticks or
	// events) and perUnit the mean number of events it yields per unit.
	units   int
	perUnit float64
	stream  func(units int, seed int64) []event.Event
	// verify is the length of the timestamp-sorted prefix the brute-force
	// oracle checks; it is sized so the oracle stays under about a second.
	verify int
}

const (
	seqQuery = "PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s"
	negQuery = "PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WHERE s.id = e.id AND s.id = c.id WITHIN 6s"
)

func rfidStream(items int, seed int64) []event.Event {
	return gen.RFID(gen.DefaultRFID(items, seed))
}

// workloads lists the six jobs in the order BENCHMARK.json names them. Each
// pass is sized to take roughly half a second at the commit that added the
// benchmark, which leaves room for about twenty timed passes in ten seconds.
var workloads = []workload{
	{
		name: "rfid-seq-native", query: seqQuery, strategy: oostream.StrategyNative,
		k: 2000, disorder: 0.2, units: 24000, perUnit: 3.23, stream: rfidStream, verify: 25000,
	},
	{
		name:     "uniform-fanout-native",
		query:    "PATTERN SEQ(A a, B b, C c) WITHIN 200",
		strategy: oostream.StrategyNative,
		k:        200, disorder: 0.5, units: 40000, perUnit: 1,
		stream: func(n int, seed int64) []event.Event {
			return gen.Uniform(n, []string{"A", "B", "C"}, 8, 15, seed)
		},
		verify: 12000,
	},
	{
		name: "stock-vshape-native",
		query: "PATTERN SEQ(TRADE a, TRADE b, TRADE c) WHERE a.sym = b.sym AND b.sym = c.sym " +
			"AND b.price < a.price - 3 AND c.price > a.price + 3 WITHIN 2000",
		strategy: oostream.StrategyNative,
		k:        500, disorder: 0.2, units: 12000, perUnit: 1,
		stream: func(n int, seed int64) []event.Event {
			return gen.Stock(gen.DefaultStock(n, seed))
		},
		verify: 700,
	},
	{
		name: "rfid-neg-kslack", query: negQuery, strategy: oostream.StrategyKSlack,
		k: 2000, disorder: 0.2, units: 9000, perUnit: 3.23, stream: rfidStream, verify: 14000,
	},
	{
		name: "rfid-neg-speculate", query: negQuery, strategy: oostream.StrategySpeculate,
		k: 2000, disorder: 0.2, units: 9000, perUnit: 3.23, stream: rfidStream, verify: 14000,
	},
	{
		name:     "rfid-agg-sliding",
		query:    "AGGREGATE MAX(e.id) OVER SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 120s SLIDE 20",
		strategy: oostream.StrategyNative,
		k:        2000, disorder: 0.2, units: 12000, perUnit: 3.23, stream: rfidStream, verify: 10000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the workload shrunk to about n events, for smoke runs and
// tests; the oracle then takes a quarter of them.
func (w workload) scaled(n int) workload {
	w.units = max(1, int(float64(n)/w.perUnit))
	w.verify = min(w.verify, n/4)
	return w
}

func (w workload) config() oostream.Config {
	return oostream.Config{Strategy: w.strategy, K: w.k}
}

// arrival generates the workload's stream for seed in arrival order: sorted
// by timestamp with Seq assigned, then a disorder share delayed by up to k.
func (w workload) arrival(seed int64) []event.Event {
	sorted := w.stream(w.units, seed)
	return gen.Shuffle(sorted, gen.Disorder{Ratio: w.disorder, MaxDelay: w.k, Seed: seed + 1})
}

// writeTrace encodes events as the JSON Lines trace esprun reads.
func writeTrace(path string, events []event.Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := trace.NewWriter(f)
	if err := tw.WriteAll(events); err != nil {
		f.Close()
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := tw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush %s: %w", path, err)
	}
	return f.Close()
}
