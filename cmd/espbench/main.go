// Command espbench prints the evaluation tables of the reproduced paper
// (see DESIGN.md §4 for the per-experiment index and EXPERIMENTS.md for
// recorded results).
//
// Usage:
//
//	espbench                       # every experiment at smoke scale
//	espbench -scale full           # paper-scale streams (slower)
//	espbench -exp E2,E8            # a subset
//	espbench -cpuprofile cpu.out   # pprof CPU profile of the run
//	espbench -memprofile mem.out   # pprof heap profile after the run
//
// The first line names the host, the Go version and the reps behind every
// timing cell; a timing cell reads "median [q1–q3]" over those reps.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"oostream/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "espbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("espbench", flag.ContinueOnError)
	var (
		scaleName  = fs.String("scale", "smoke", "workload scale: smoke or full")
		expList    = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scale bench.Scale
	switch *scaleName {
	case "smoke":
		scale = bench.Smoke
	case "full":
		scale = bench.Full
	default:
		return fmt.Errorf("unknown scale %q (want smoke or full)", *scaleName)
	}

	experiments := bench.All()
	if *expList != "" {
		experiments = experiments[:0]
		for _, id := range strings.Split(*expList, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			experiments = append(experiments, e)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	if _, err := fmt.Fprintf(stdout, "host %s (%d CPUs, GOMAXPROCS %d), %s, %s scale, %d reps a timing cell: median [q1–q3]\n\n",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *scaleName, scale.Reps()); err != nil {
		return err
	}
	for _, e := range experiments {
		if err := e.Run(scale).Render(stdout); err != nil {
			return err
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}
