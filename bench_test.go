// Benchmarks: one per experiment of the reproduced evaluation (DESIGN.md
// §4). Each benchmark measures engine processing cost (ns/op over a whole
// stream; derive events/sec as stream length / time) at representative
// sweep points; cmd/espbench regenerates the full tables with all points
// and the derived columns.
package oostream_test

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"oostream"
	"oostream/internal/fiba"
	"oostream/internal/gen"
	"oostream/internal/kslack"
	"oostream/internal/netsim"
)

const (
	benchItems  = 2_000
	benchK      = oostream.Time(2_000)
	benchWindow = "6s"
)

func benchSeqQuery(tb testing.TB) *oostream.Query {
	q, err := oostream.Compile(
		"PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN "+benchWindow,
		gen.RFIDSchema())
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

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

// BenchmarkE1Correctness drives the correctness experiment's workload
// (negation query, every strategy) at 20% disorder. Precision/recall are
// asserted in internal/bench tests; here the cost of being correct is the
// measurement.
func BenchmarkE1Correctness(b *testing.B) {
	q := benchNegQuery(b)
	events := benchStream(0.20, benchK)
	for _, strat := range oostream.Strategies() {
		b.Run(string(strat), func(b *testing.B) {
			run(b, q, oostream.Config{Strategy: strat, K: benchK}, events)
		})
	}
}

// BenchmarkE2ThroughputVsDisorder sweeps the disorder ratio for the two
// strategies of the CPU-cost figure (cmd/espbench adds the in-order
// reference kernel's row).
func BenchmarkE2ThroughputVsDisorder(b *testing.B) {
	q := benchSeqQuery(b)
	for _, ratio := range []float64{0, 0.10, 0.40} {
		events := benchStream(ratio, benchK)
		for _, strat := range []oostream.Strategy{oostream.StrategyKSlack, oostream.StrategyNative} {
			b.Run(fmt.Sprintf("ooo=%.0f%%/%s", ratio*100, strat), func(b *testing.B) {
				run(b, q, oostream.Config{Strategy: strat, K: benchK}, events)
			})
		}
	}
}

// BenchmarkE3ThroughputVsK sweeps the slack bound.
func BenchmarkE3ThroughputVsK(b *testing.B) {
	q := benchSeqQuery(b)
	for _, k := range []oostream.Time{100, 2_000, 10_000} {
		events := benchStream(0.10, k)
		for _, strat := range []oostream.Strategy{oostream.StrategyKSlack, oostream.StrategyNative} {
			b.Run(fmt.Sprintf("K=%d/%s", k, strat), func(b *testing.B) {
				run(b, q, oostream.Config{Strategy: strat, K: k}, events)
			})
		}
	}
}

// BenchmarkE4MemoryVsK is E3's sweep with peak state reported as the
// metric of interest.
func BenchmarkE4MemoryVsK(b *testing.B) {
	q := benchSeqQuery(b)
	for _, k := range []oostream.Time{100, 10_000} {
		events := benchStream(0.10, k)
		for _, strat := range []oostream.Strategy{oostream.StrategyKSlack, oostream.StrategyNative} {
			b.Run(fmt.Sprintf("K=%d/%s", k, strat), func(b *testing.B) {
				b.ReportAllocs()
				peak := 0
				for i := 0; i < b.N; i++ {
					en := oostream.MustNewEngine(q, oostream.Config{Strategy: strat, K: k})
					en.ProcessAll(events)
					peak = en.Metrics().PeakState
				}
				b.ReportMetric(float64(peak), "peak_state")
			})
		}
	}
}

// BenchmarkE5Window sweeps the window size on the native engine.
func BenchmarkE5Window(b *testing.B) {
	events := benchStream(0.10, benchK)
	for _, w := range []int{1_000, 10_000, 100_000} {
		q, err := oostream.Compile(fmt.Sprintf(
			"PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN %d", w),
			gen.RFIDSchema())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			run(b, q, oostream.Config{K: benchK}, events)
		})
	}
}

// BenchmarkE6PurgeAblation compares purge cadences.
func BenchmarkE6PurgeAblation(b *testing.B) {
	q := benchSeqQuery(b)
	events := benchStream(0.10, benchK)
	for _, pe := range []int{1, 64, -1} {
		name := fmt.Sprintf("purgeEvery=%d", pe)
		if pe < 0 {
			name = "purgeEvery=never"
		}
		b.Run(name, func(b *testing.B) {
			run(b, q, oostream.Config{K: benchK, PurgeEvery: pe}, events)
		})
	}
}

// BenchmarkE7OptAblation compares the optimized scan against probe-always.
func BenchmarkE7OptAblation(b *testing.B) {
	q := benchSeqQuery(b)
	for _, ratio := range []float64{0.01, 0.40} {
		events := benchStream(ratio, benchK)
		b.Run(fmt.Sprintf("ooo=%.0f%%/optimized", ratio*100), func(b *testing.B) {
			run(b, q, oostream.Config{K: benchK}, events)
		})
		b.Run(fmt.Sprintf("ooo=%.0f%%/probe-always", ratio*100), func(b *testing.B) {
			run(b, q, oostream.Config{K: benchK, DisableTriggerOpt: true}, events)
		})
	}
}

// BenchmarkE8Latency measures processing cost at the latency experiment's
// sweep points; the latency distributions themselves are summarized by
// cmd/espbench (they are outputs, not costs).
func BenchmarkE8Latency(b *testing.B) {
	q := benchSeqQuery(b)
	events := benchStream(0.10, 10_000)
	for _, strat := range []oostream.Strategy{oostream.StrategyKSlack, oostream.StrategyNative, oostream.StrategySpeculate} {
		b.Run(string(strat), func(b *testing.B) {
			b.ReportAllocs()
			var mean float64
			for i := 0; i < b.N; i++ {
				en := oostream.MustNewEngine(q, oostream.Config{Strategy: strat, K: 10_000})
				en.ProcessAll(events)
				mean = en.Metrics().LogicalLat.Mean()
			}
			b.ReportMetric(mean, "lat_mean_ms")
		})
	}
}

// BenchmarkE9PatternLength sweeps the pattern length on a uniform stream.
func BenchmarkE9PatternLength(b *testing.B) {
	allTypes := []string{"T1", "T2", "T3", "T4", "T5", "T6"}
	sorted := gen.Uniform(5_000, allTypes, 4, 10, 17)
	events := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.10, MaxDelay: 200, Seed: 18})
	for _, n := range []int{2, 4, 6} {
		src := "PATTERN SEQ("
		for i := 0; i < n; i++ {
			if i > 0 {
				src += ", "
			}
			src += fmt.Sprintf("T%d v%d", i+1, i+1)
		}
		src += ") WHERE v1.id = v2.id WITHIN 400"
		q, err := oostream.Compile(src, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			run(b, q, oostream.Config{K: 200}, events)
		})
	}
}

// BenchmarkE10Negation measures the shoplifting query per strategy.
func BenchmarkE10Negation(b *testing.B) {
	q := benchNegQuery(b)
	events := benchStream(0.10, benchK)
	for _, strat := range oostream.Strategies() {
		b.Run(string(strat), func(b *testing.B) {
			run(b, q, oostream.Config{Strategy: strat, K: benchK}, events)
		})
	}
}

// BenchmarkE11Speculation measures the aggressive engine across disorder,
// reporting the retraction rate.
func BenchmarkE11Speculation(b *testing.B) {
	q := benchNegQuery(b)
	for _, ratio := range []float64{0, 0.20, 0.40} {
		events := benchStream(ratio, benchK)
		b.Run(fmt.Sprintf("ooo=%.0f%%", ratio*100), func(b *testing.B) {
			b.ReportAllocs()
			var rate float64
			for i := 0; i < b.N; i++ {
				en := oostream.MustNewEngine(q, oostream.Config{Strategy: oostream.StrategySpeculate, K: benchK})
				en.ProcessAll(events)
				m := en.Metrics()
				if m.Matches > 0 {
					rate = float64(m.Retractions) / float64(m.Matches)
				}
			}
			b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(rate, "retract_rate")
		})
	}
}

// BenchmarkComponents isolates the substrate hot paths so regressions can
// be localized below the engine level.
func BenchmarkComponents(b *testing.B) {
	b.Run("kslack-buffer", func(b *testing.B) {
		events := benchStream(0.20, benchK)
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

// BenchmarkE12NetworkSim measures each strategy over a mechanistically
// delivered stream (link jitter + failure bursts) with K at the realized
// max delay.
func BenchmarkE12NetworkSim(b *testing.B) {
	q := benchSeqQuery(b)
	sorted := gen.RFID(gen.DefaultRFID(benchItems, 1))
	delivered, _, prof, err := netsim.Deliver(sorted, netsim.Config{
		Sources: 8,
		Link:    netsim.DefaultLink(),
		Failure: netsim.FailureConfig{MTBF: 60_000, OutageMean: 2_000},
		Seed:    24,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []oostream.Strategy{oostream.StrategyKSlack, oostream.StrategyNative, oostream.StrategySpeculate} {
		b.Run(string(strat), func(b *testing.B) {
			run(b, q, oostream.Config{Strategy: strat, K: prof.MaxDelay}, delivered)
		})
	}
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

// BenchmarkE16ObsvOverhead prices the live observability layer: the native
// engine uninstrumented, with its counters bound to a registry series, and
// with a flight-recorder trace hook on top. The acceptance bar for the
// layer is the registry+trace case staying within a few percent of off.
func BenchmarkE16ObsvOverhead(b *testing.B) {
	q := benchSeqQuery(b)
	events := benchStream(0.20, benchK)
	b.Run("off", func(b *testing.B) {
		run(b, q, oostream.Config{K: benchK}, events)
	})
	b.Run("registry", func(b *testing.B) {
		run(b, q, oostream.Config{K: benchK, Observer: oostream.NewObserver()}, events)
	})
	b.Run("registry+trace", func(b *testing.B) {
		cfg := oostream.Config{K: benchK, Observer: oostream.NewObserver(),
			Trace: oostream.NewFlightRecorder(256)}
		run(b, q, cfg, events)
	})
}

// BenchmarkE18Batch prices the batched admission path: the native engine
// driven through ProcessBatch at sweep batch sizes (1 = the per-event
// degenerate case, paying only the dispatch wrapper). The wins are amortized
// purge/gauge work and deferred state reclamation; output is identical to
// per-event processing by the ProcessBatch contract (proved by
// internal/difftest.RunBatch).
func BenchmarkE18Batch(b *testing.B) {
	q := benchSeqQuery(b)
	events := benchStream(0.20, benchK)
	for _, size := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			var matches int
			for i := 0; i < b.N; i++ {
				en := oostream.MustNewEngine(q, oostream.Config{K: benchK})
				n := 0
				for start := 0; start < len(events); start += size {
					end := min(start+size, len(events))
					n += len(en.ProcessBatch(events[start:end]))
				}
				matches = n + len(en.Flush())
			}
			b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(matches), "matches")
		})
	}
}

// BenchmarkE17Provenance prices match lineage: the negation workload with
// provenance off (the default — engines skip all record construction
// behind one predictable branch) and on (every emitted match carries a
// full lineage record, and pending matches retain theirs until sealing).
// The acceptance bar is off being indistinguishable from the E1 native
// baseline and on staying within ~10% of off.
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

// BenchmarkE19MultiQuery prices shared admission: a QuerySet holding N
// sparse two-step queries over a 200-type universe versus a loop of N
// independent native engines fed the same stream. The QuerySet pays
// reorder/purge once per event and dispatches through its type index; the
// loop pays full admission per (engine, event) pair. Per-query output
// equivalence is proved by internal/difftest.RunMulti; here the cost gap
// is the measurement.
func BenchmarkE19MultiQuery(b *testing.B) {
	const nTypes = 200
	types := make([]string, nTypes)
	for i := range types {
		types[i] = fmt.Sprintf("T%d", i)
	}
	events := gen.Shuffle(gen.Uniform(benchItems, types, 8, 10, 91),
		gen.Disorder{Ratio: 0.20, MaxDelay: 200, Seed: 92})
	for _, n := range []int{10, 100} {
		queries := make([]*oostream.Query, n)
		for i := range queries {
			a, c := (i*7)%nTypes, (i*13+1)%nTypes
			if a == c {
				c = (c + 1) % nTypes
			}
			queries[i] = oostream.MustCompile(fmt.Sprintf(
				"PATTERN SEQ(T%d x0, T%d x1) WHERE x0.id = x1.id WITHIN 400", a, c), nil)
		}
		b.Run(fmt.Sprintf("queries=%d/queryset", n), func(b *testing.B) {
			b.ReportAllocs()
			var matches int
			for i := 0; i < b.N; i++ {
				set := oostream.MustNewQuerySet(oostream.QuerySetConfig{K: 200})
				for j, q := range queries {
					if err := set.Register(fmt.Sprintf("q%d", j), q); err != nil {
						b.Fatal(err)
					}
				}
				matches = len(set.ProcessAll(events))
			}
			b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(matches), "matches")
		})
		b.Run(fmt.Sprintf("queries=%d/loop", n), func(b *testing.B) {
			b.ReportAllocs()
			var matches int
			for i := 0; i < b.N; i++ {
				matches = 0
				for _, q := range queries {
					en := oostream.MustNewEngine(q, oostream.Config{K: 200})
					matches += len(en.ProcessAll(events))
				}
			}
			b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(matches), "matches")
		})
	}
}

// BenchmarkE21Fiba compares three ways to maintain a sliding MAX over an
// out-of-order element stream, data structures alone (no pattern engine):
// the sorted run with a two-stacks fold the aggregate operator runs
// (fiba.Run: one merge per window), the FiBA tree it is tested against
// (O(log n) cached partials per window), and the brute-force sorted slice
// that rescans every in-window element at every seal. MAX has no
// subtract-on-evict shortcut, so the rescan is the honest alternative. The
// run and the tree are flat in window density; the rescan degenerates with
// it. Each is run twice: sealing windows behind the clock by the stream's
// measured disorder bound (every element is final when its window is read,
// the premise the run's fold rests on), and by k, under a third of it, where
// one element in twelve arrives after a window it belongs to was read — each
// costs the run a refold of a window's length and the tree a climb. The
// stream is also wide in elements: nine inserts in ten land 500 to 1 000
// elements behind the last, which the run pays as a shift of that many and
// the tree as a climb. E21 in EXPERIMENTS.md runs the same comparison under
// the pattern engine and through the aggregate operator, on a stream whose
// late elements land about a hundred behind the last.
func BenchmarkE21Fiba(b *testing.B) {
	const (
		n     = 100_000
		k     = 1_000 // an element is swapped with one up to k later
		slide = oostream.Time(10)
	)
	// Deterministic element stream: ts marches 1/element, ~10% swapped with
	// an element up to k earlier, values from a fixed LCG. The later of a
	// pair runs the clock up to k ahead of everything that follows, and swaps
	// chain, so lateness against the clock is measured, not assumed.
	type elem struct {
		ts  oostream.Time
		seq uint64
		val int64
	}
	elems := make([]elem, n)
	rng := uint64(1)
	for i := range elems {
		rng = rng*6364136223846793005 + 1442695040888963407
		elems[i] = elem{ts: oostream.Time(i), seq: uint64(i), val: int64(rng >> 40)}
	}
	for i := range elems {
		rng = rng*6364136223846793005 + 1442695040888963407
		if rng%10 == 0 {
			d := int(rng>>32) % k
			if j := i - d; j >= 0 {
				elems[i], elems[j] = elems[j], elems[i]
			}
		}
	}
	var clock, bound oostream.Time
	for _, e := range elems {
		clock = max(clock, e.ts)
		bound = max(bound, clock-e.ts)
	}
	// store is one of the three structures under test.
	type store struct {
		insert func(e elem)
		// seal reads the MAX of (end−window, end] and evicts what no later
		// window covers.
		seal func(end, window oostream.Time) (int64, bool)
	}
	fibaStore := func(insert func(fiba.Key, fiba.Partial), query func(lo, hi fiba.Key) fiba.Partial, purge func(fiba.Key, func(any)) int) store {
		return store{
			insert: func(e elem) { insert(fiba.Key{TS: e.ts, Seq: e.seq}, fiba.Of(oostream.Int(e.val))) },
			seal: func(end, window oostream.Time) (int64, bool) {
				p := query(fiba.Key{TS: end - window, Seq: fiba.MaxSeq}, fiba.Key{TS: end, Seq: fiba.MaxSeq})
				purge(fiba.Key{TS: end + slide - window, Seq: fiba.MaxSeq}, nil)
				return p.Max.AsInt()
			},
		}
	}
	structures := []struct {
		name string
		make func() store
	}{
		{"run", func() store {
			r := fiba.NewRun(0)
			return fibaStore(func(k fiba.Key, p fiba.Partial) { r.Insert(k, p, nil) }, r.Query, r.PurgeThrough)
		}},
		{"fiba", func() store {
			t := fiba.New()
			return fibaStore(func(k fiba.Key, p fiba.Partial) { t.Insert(k, p, nil) }, t.Query, t.PurgeThrough)
		}},
		{"rescan", func() store {
			var buf []elem // sorted by ts
			after := func(ts oostream.Time) int {
				return sort.Search(len(buf), func(j int) bool { return buf[j].ts > ts })
			}
			return store{
				insert: func(e elem) {
					at := after(e.ts)
					buf = append(buf, elem{})
					copy(buf[at+1:], buf[at:])
					buf[at] = e
				},
				seal: func(end, window oostream.Time) (max int64, ok bool) {
					lo, hi := after(end-window), after(end)
					if ok = lo < hi; ok {
						max = buf[lo].val
						for _, x := range buf[lo+1 : hi] {
							if x.val > max {
								max = x.val
							}
						}
					}
					buf = buf[after(end+slide-window):]
					return max, ok
				},
			}
		}},
	}
	for _, window := range []oostream.Time{1_000, 16_000, 64_000} {
		for _, lag := range []struct {
			name string
			by   oostream.Time
		}{{"within-bound", bound}, {"beyond-bound", k}} {
			for _, st := range structures {
				b.Run(fmt.Sprintf("elems/win=%d/%s/%s", window, lag.name, st.name), func(b *testing.B) {
					b.ReportAllocs()
					var sink int64
					for i := 0; i < b.N; i++ {
						s := st.make()
						var clock, nextEnd oostream.Time
						nextEnd = slide
						for _, e := range elems {
							s.insert(e)
							if e.ts > clock {
								clock = e.ts
								for ; nextEnd < clock-lag.by; nextEnd += slide {
									if v, ok := s.seal(nextEnd, window); ok {
										sink ^= v
									}
								}
							}
						}
					}
					b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "elems/s")
					_ = sink
				})
			}
		}
	}
}
