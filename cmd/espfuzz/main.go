// Command espfuzz runs long differential soak sessions: it draws trial
// seeds sequentially, runs each through the full differential harness
// (every strategy, a checkpoint round-trip, and a latency-sampler on/off
// differential — all against the brute-force oracle), shrinks any divergence, and prints a JSON summary. Exit status
// is non-zero when any trial diverged.
//
//	go run ./cmd/espfuzz -budget 30s
//	go run ./cmd/espfuzz -budget 10m -seed 1000000 -maxfail 5
//	go run ./cmd/espfuzz -budget 30s -crash
//	go run ./cmd/espfuzz -budget 30s -batch
//	go run ./cmd/espfuzz -budget 30s -adaptive
//	go run ./cmd/espfuzz -budget 30s -agg
//
// With -batch each trial runs the batch≡per-event differential instead:
// every strategy is driven once per event and again through ProcessBatch
// under singleton, whole-stream, and random batch partitions, and the runs
// must agree exactly — matches, lineage records, trace-op multisets, and
// heartbeats injected at batch boundaries.
//
// With -multi each trial runs the multi-query differential instead: a
// QuerySet with several registered queries (shared admission, event-type
// index, prefix gating) must equal, per query, both the oracle and
// independent single-query engines — across strategies, batch ingestion,
// lineage, live Register/Unregister, and supervised kill/recover with the
// v2 checkpoint format.
//
// With -adaptive each trial runs the adaptive disorder-control
// differential instead: dynamic-K engines must equal the oracle over
// exactly the events they admitted (and a static run at K = max observed),
// overload shedding must be fully accounted, and the hybrid meta-engine
// must survive forced strategy switches with the net multiset intact.
//
// With -agg each trial runs the windowed-aggregation differential
// instead: a random AGGREGATE query (COUNT/SUM/AVG/MIN/MAX, sliding
// windows, GROUP BY, HAVING) runs through every strategy — the
// speculative engine's preview/revision pairs must net out — plus
// heartbeats, batching, lineage, and a checkpoint round-trip, all against a
// brute-force window oracle.
//
// With -crash each trial instead runs the crash-point differential: the
// supervised fault-tolerant runtime is killed at seed-derived offsets and
// recovered from its durable store (checkpoints + write-ahead log), and
// the recovered run must reproduce the uninterrupted run's exact ordered
// match sequence across every strategy and corrupted-checkpoint fallback. Half the crash trials draw their arrival
// stream from the fault-injecting delivery simulator (drops, duplicate
// deliveries, source stalls).
//
// Unlike `go test -fuzz`, which hunts coverage, espfuzz hunts wall-clock
// volume: tens of thousands of independent seed-reproducible trials per
// minute, suitable for overnight soaks and CI time boxes. Every failure
// line carries the seed and a minimized Go-source repro for
// internal/difftest/regress_test.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"oostream/internal/difftest"
	"oostream/internal/obsv"
	"oostream/internal/obsv/httpx"
)

// summary is the machine-readable soak result printed to stdout.
type summary struct {
	Trials    int     `json:"trials"`
	Failures  int     `json:"failures"`
	ElapsedMS int64   `json:"elapsed_ms"`
	TrialsSec float64 `json:"trials_per_sec"`
	FirstSeed int64   `json:"first_seed"`
	LastSeed  int64   `json:"last_seed"`
	FailSeeds []int64 `json:"fail_seeds,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry: parses flags, soaks, prints, returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("espfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		budget  = fs.Duration("budget", 30*time.Second, "wall-clock time budget for the soak")
		seed    = fs.Int64("seed", 1, "first trial seed; trials use seed, seed+1, …")
		trials  = fs.Int("trials", 0, "max trials (0 = unlimited within budget)")
		maxfail = fs.Int("maxfail", 3, "stop after this many failures")
		quiet   = fs.Bool("q", false, "suppress per-failure reports (summary only)")
		crash   = fs.Bool("crash", false, "run the crash-recovery differential instead of the strategy differential")
		batch   = fs.Bool("batch", false, "run the batch≡per-event differential instead of the strategy differential")
		multi   = fs.Bool("multi", false, "run the multi-query QuerySet differential instead of the strategy differential")
		adapt   = fs.Bool("adaptive", false, "run the adaptive disorder-control differential (dynamic K, shedding, hybrid switching) instead of the strategy differential")
		agg     = fs.Bool("agg", false, "run the windowed-aggregation differential (the window operator, all strategies, checkpoint) instead of the strategy differential")
		listen  = fs.String("listen", "", "serve live soak progress over HTTP (/varz, /healthz, /debug/pprof) on this address")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Soak progress counters, published on -listen. Atomics because the
	// HTTP handlers read them from other goroutines mid-soak.
	var liveTrials, liveFailures, liveSeed atomic.Int64
	if *listen != "" {
		reg := obsv.NewRegistry()
		reg.RegisterVarz("soak", func() any {
			return map[string]any{
				"trials":    liveTrials.Load(),
				"failures":  liveFailures.Load(),
				"last_seed": liveSeed.Load(),
			}
		})
		srv, err := httpx.Listen(*listen, reg, nil, nil, nil)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "espfuzz: observability on http://%s/varz\n", srv.Addr())
	}

	start := time.Now()
	deadline := start.Add(*budget)
	s := summary{FirstSeed: *seed, LastSeed: *seed - 1}
	for next := *seed; time.Now().Before(deadline); next++ {
		if *trials > 0 && s.Trials >= *trials {
			break
		}
		s.Trials++
		s.LastSeed = next
		liveTrials.Store(int64(s.Trials))
		liveSeed.Store(next)
		var fail *difftest.Failure
		switch {
		case *crash:
			// Alternate plain and fault-injected arrival streams so both
			// the crash machinery and the duplicate-admission path soak.
			c := difftest.Generate(next)
			if next%2 == 0 {
				c = difftest.GenerateFaulty(next)
			}
			fail = difftest.RunCrash(c)
		case *batch:
			fail = difftest.RunBatch(difftest.Generate(next))
		case *multi:
			fail = difftest.RunMulti(difftest.Generate(next))
		case *adapt:
			fail = difftest.RunAdaptive(difftest.Generate(next))
		case *agg:
			fail = difftest.RunAgg(difftest.GenerateAgg(next))
		default:
			fail = difftest.Run(difftest.Generate(next))
		}
		if fail != nil {
			s.Failures++
			liveFailures.Store(int64(s.Failures))
			s.FailSeeds = append(s.FailSeeds, next)
			if !*quiet {
				switch {
				case *crash:
					// Crash failures are reported unshrunk: Shrink re-runs
					// the strategy differential, not the crash one.
					fmt.Fprintf(stderr, "%v\n", fail)
				case *batch:
					fmt.Fprintf(stderr, "%s\n", difftest.ShrinkBatch(fail).Report())
				case *multi:
					fmt.Fprintf(stderr, "%s\n", difftest.ShrinkMulti(fail).Report())
				case *adapt, *agg:
					// Adaptive and aggregation failures are reported unshrunk:
					// Shrink re-runs the strategy differential, not these.
					fmt.Fprintf(stderr, "%s\n", fail.Report())
				default:
					fmt.Fprintf(stderr, "%s\n", difftest.Shrink(fail).Report())
				}
			}
			if s.Failures >= *maxfail {
				break
			}
		}
	}
	elapsed := time.Since(start)
	s.ElapsedMS = elapsed.Milliseconds()
	if elapsed > 0 {
		s.TrialsSec = float64(s.Trials) / elapsed.Seconds()
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(s); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if s.Failures > 0 {
		return 1
	}
	return 0
}
