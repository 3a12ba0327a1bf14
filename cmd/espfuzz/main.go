// Command espfuzz runs long differential soak sessions: it draws trial
// seeds sequentially, runs each through one mode of the differential
// harness (internal/difftest), shrinks any divergence, and prints a JSON
// summary. Exit status is non-zero when any trial diverged.
//
//	go run ./cmd/espfuzz -budget 30s
//	go run ./cmd/espfuzz -budget 10m -seed 1000000 -maxfail 5
//	go run ./cmd/espfuzz -budget 30s -mode crash
//
// -mode names the list of compositions each trial runs (default plain):
//
//	plain     every strategy against the brute-force oracle, with lineage,
//	          the latency sampler, heartbeats and a checkpoint round-trip
//	batch     ProcessBatch under every partition scheme ≡ per-event runs
//	crash     supervised runs killed and recovered ≡ uninterrupted ones;
//	          every other trial's stream has drops, duplicates and stalls
//	multi     a QuerySet per query ≡ the oracle and independent engines,
//	          batched, live Register/Unregister, supervised across kills
//	adaptive  dynamic K, shedding and hybrid switches ≡ the oracle over
//	          what was admitted
//	agg       AGGREGATE queries through every strategy ≡ a window oracle
//
// Unlike `go test -fuzz`, which hunts coverage, espfuzz hunts wall-clock
// volume: tens of thousands of independent seed-reproducible trials per
// minute, suitable for overnight soaks and CI time boxes. Every failure
// report carries the seed and a minimized Go-source repro for
// internal/difftest/regress_test.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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
		mode    = fs.String("mode", "plain", fmt.Sprint("the differential each trial runs, one of ", difftest.Modes))
		listen  = fs.String("listen", "", "serve live soak progress over HTTP (/varz, /healthz, /debug/pprof) on this address")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	m := difftest.Mode(*mode)
	if !slices.Contains(difftest.Modes, m) {
		fmt.Fprintf(stderr, "espfuzz: -mode %q: want one of %v\n", *mode, difftest.Modes)
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
		if fail := difftest.Run(m, m.Generate(next)); fail != nil {
			s.Failures++
			liveFailures.Store(int64(s.Failures))
			s.FailSeeds = append(s.FailSeeds, next)
			if !*quiet {
				fmt.Fprintf(stderr, "%s\n", difftest.Shrink(fail).Report())
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
