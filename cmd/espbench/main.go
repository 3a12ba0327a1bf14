// Command espbench regenerates the evaluation tables of the reproduced
// paper (see DESIGN.md §4 for the per-experiment index and EXPERIMENTS.md
// for recorded results).
//
// Usage:
//
//	espbench                       # every experiment at smoke scale
//	espbench -scale full           # paper-scale streams (slower)
//	espbench -exp E2,E8            # a subset
//	espbench -csv                  # machine-readable output
//	espbench -json                 # JSON output (one array of tables)
//	espbench -cpuprofile cpu.out   # pprof CPU profile of the run
//	espbench -memprofile mem.out   # pprof heap profile after the run
//	espbench -queries 100          # multi-query benchmark at one query count
//
// -queries N runs only the multi-query shared-admission benchmark (E19's
// harness) at the single given query count — the cheap CI smoke form of
// the full E19 sweep.
//
// JSON output stamps each table with host metadata (CPU count,
// GOMAXPROCS, Go version) so recorded baselines carry provenance.
//
// The committed BENCH_native.json baseline is regenerated with:
//
//	go run ./cmd/espbench -exp E2,E10,E18,E19,E20,E21,E22 -json > BENCH_native.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"oostream"
	"oostream/internal/bench"
	"oostream/internal/obsv/httpx"
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
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = fs.Bool("json", false, "emit one JSON array of tables")
		list       = fs.Bool("list", false, "list experiments and exit")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile taken after the run to this file")
		listen     = fs.String("listen", "", "serve live observability HTTP on this address while experiments run (/metrics, /varz, /healthz, /debug/pprof)")
		queries    = fs.Int("queries", 0, "run only the multi-query benchmark at this registered-query count (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csv && *jsonOut {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	if *listen != "" {
		reg := oostream.NewObserver()
		bench.Observer = reg
		srv, err := httpx.Listen(*listen, reg, nil, nil, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "espbench: observability on http://%s/metrics\n", srv.Addr())
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
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

	if *queries > 0 {
		if *expList != "" {
			return fmt.Errorf("-queries is exclusive with -exp")
		}
		tbl := bench.MultiQuery(scale, []int{*queries})
		tbl.Host = bench.HostInfo()
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode([]*bench.Table{tbl})
		}
		if *csv {
			return tbl.RenderCSV(stdout)
		}
		return tbl.Render(stdout)
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

	var tables []*bench.Table
	host := bench.HostInfo()
	for _, e := range experiments {
		tbl := e.Run(scale)
		tbl.Host = host
		var err error
		switch {
		case *jsonOut:
			tables = append(tables, tbl) // encoded together below
		case *csv:
			err = tbl.RenderCSV(stdout)
		default:
			err = tbl.Render(stdout)
		}
		if err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
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
