// Benchmarks of what internal/bench's tables do not time: the recovery
// overhead of the durable engine (E15), the cost of match provenance (E17)
// and the substrate's hot paths. Each measures processing cost as ns/op
// over a whole stream; derive events/sec as stream length / time. The
// experiments with a table are cmd/espbench's.
package oostream_test

import (
	"fmt"
	"os"
	"testing"

	"oostream"
	"oostream/internal/gen"
	"oostream/internal/kslack"
)

const (
	benchItems  = 2_000
	benchK      = oostream.Time(2_000)
	benchWindow = "6s"
)

func benchNegQuery(tb testing.TB) *oostream.Query {
	q, err := oostream.Compile(`
		PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
		WHERE s.id = e.id AND s.id = c.id
		WITHIN `+benchWindow, gen.RFIDSchema())
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

func benchStream(ratio float64, k oostream.Time) []oostream.Event {
	sorted := gen.RFID(gen.DefaultRFID(benchItems, 1))
	return gen.Shuffle(sorted, gen.Disorder{Ratio: ratio, MaxDelay: k, Seed: 2})
}

// run measures one full pass of the stream per iteration and reports
// throughput.
func run(b *testing.B, q *oostream.Query, cfg oostream.Config, events []oostream.Event) {
	b.Helper()
	b.ReportAllocs()
	var matches int
	for i := 0; i < b.N; i++ {
		en, err := oostream.NewEngine(q, cfg)
		if err != nil {
			b.Fatal(err)
		}
		matches = len(en.ProcessAll(events))
	}
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(matches), "matches")
}

// BenchmarkComponents isolates the substrate hot paths so regressions can
// be localized below the engine level.
func BenchmarkComponents(b *testing.B) {
	b.Run("kslack-buffer", func(b *testing.B) {
		events := benchStream(0.20, benchK)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf := kslack.NewBuffer(benchK)
			for _, e := range events {
				buf.Push(e)
			}
			buf.Flush()
		}
	})
	b.Run("query-compile", func(b *testing.B) {
		schema := gen.RFIDSchema()
		for i := 0; i < b.N; i++ {
			_, err := oostream.Compile(
				"PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WHERE s.id = e.id AND s.id = c.id WITHIN 6s",
				schema)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE15RecoveryOverhead measures the fault-tolerance tax: the
// supervised runtime (write-ahead log + Seq deduplication + periodic
// durable checkpoints) over the native engine, swept by checkpoint
// interval, against the unsupervised engine. "wal-only" logs events but
// never snapshots; ckpt-bytes is the size of the last checkpoint written.
// Fsync is disabled so the numbers isolate protocol cost
// (serialization, CRC framing, admission bookkeeping) from disk sync
// latency, which SyncEveryEvent would make the only visible term.
func BenchmarkE15RecoveryOverhead(b *testing.B) {
	q := benchNegQuery(b)
	events := benchStream(0.10, benchK)
	b.Run("unsupervised", func(b *testing.B) {
		run(b, q, oostream.Config{K: benchK}, events)
	})
	for _, every := range []int{0, 100, 1000} {
		name := fmt.Sprintf("ckpt-every=%d", every)
		if every == 0 {
			name = "wal-only"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var matches int
			var ckptBytes uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir, err := os.MkdirTemp("", "oobench-*")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				en, err := oostream.NewSupervisedEngine(q, oostream.Config{K: benchK},
					oostream.SupervisorConfig{Dir: dir, CheckpointEvery: every, DisableFsync: true})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := en.Start(); err != nil {
					b.Fatal(err)
				}
				matches = len(en.ProcessAll(events))
				if err := en.Err(); err != nil {
					b.Fatal(err)
				}
				ckptBytes = en.Metrics().CheckpointBytes
				if err := en.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				os.RemoveAll(dir)
				b.StartTimer()
			}
			b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(matches), "matches")
			if every > 0 {
				b.ReportMetric(float64(ckptBytes), "ckpt-bytes")
			}
		})
	}
}

// BenchmarkE17Provenance prices match lineage: the negation workload with
// provenance off (the default — engines skip all record construction
// behind one predictable branch) and on (every emitted match carries a
// full lineage record, and pending matches retain theirs until sealing).
// The acceptance bar is on staying within ~10% of off.
func BenchmarkE17Provenance(b *testing.B) {
	q := benchNegQuery(b)
	events := benchStream(0.20, benchK)
	for _, strat := range []oostream.Strategy{oostream.StrategyNative, oostream.StrategySpeculate} {
		b.Run(string(strat)+"/off", func(b *testing.B) {
			run(b, q, oostream.Config{Strategy: strat, K: benchK}, events)
		})
		b.Run(string(strat)+"/on", func(b *testing.B) {
			run(b, q, oostream.Config{Strategy: strat, K: benchK, Provenance: true}, events)
		})
	}
}
