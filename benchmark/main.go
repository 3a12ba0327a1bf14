// Command benchmark is the repository's benchmark: it replays seeded event
// traces through the loop cmd/esprun runs, bytes in to results out, and
// reports end-to-end figures and a per-layer cost model. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"oostream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setups is how many times a run sets the workload up; setup_s is their
// median.
const setups = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (default: all six, one after another)")
		seed      = fs.Int64("seed", 1, "seed of the generated trace")
		seconds   = fs.Int("seconds", 10, "time spent on timed passes")
		traced    = fs.Int("trace", 0, "1: report the per-layer figures from a traced run; 0: the end-to-end figures")
		outDir    = fs.String("out", filepath.Join("benchmark", "out"), "directory for traces, spans and the ledger")
		bound     = fs.Int64("k", 0, "run the engine with this disorder bound instead of the workload's; the trace keeps the workload's delays, so a smaller bound shows the failure path")
		events    = fs.Int("events", 0, "shrink every workload to about this many events, for a smoke run (default: full size)")
		phase     = fs.String("phase", "", "internal: run one phase (setup, measure or memory) in this process")
		selfcheck = fs.Bool("selfcheck", false, "run the suite twice, the second time in reverse order, and fail if any end-to-end figure moved by more than its bound")
		compare   = fs.Bool("compare", false, "compare two ledger files given as arguments: parent.jsonl change.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two ledger files"))
		}
		if err := compareLedgers(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}

	selected := slices.Clone(workloads)
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return fail(err)
		}
		selected = []workload{w}
	}
	for i := range selected {
		if *events > 0 {
			selected[i] = selected[i].scaled(*events)
		}
		// Set-up keeps the workload's own bound: it is also the largest
		// delay the generated trace holds.
		if *bound > 0 && *phase != "setup" {
			selected[i].k = *bound
		}
	}
	inv := invocation{events: *events, seed: *seed, seconds: *seconds, traced: *traced != 0, k: *bound, outDir: *outDir, stderr: stderr}

	switch *phase {
	case "setup":
		if err := setup(selected[0], inv.seed, inv.tracePath(selected[0])); err != nil {
			return fail(err)
		}
		return 0
	case "measure":
		w := selected[0]
		res, err := measure(w, inv.seed, inv.tracePath(w), inv.outDir, time.Duration(inv.seconds)*time.Second, inv.traced)
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return fail(err)
		}
		return 0
	case "memory":
		fp, err := memory(selected[0], inv.tracePath(selected[0]))
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(stdout).Encode(fp); err != nil {
			return fail(err)
		}
		return 0
	case "":
	default:
		return fail(fmt.Errorf("unknown phase %q", *phase))
	}

	if *selfcheck {
		ok, err := inv.selfcheck(stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	code := 0
	for _, w := range selected {
		res, err := inv.runWorkload(w)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		res.describe(stderr)
		if err := res.report(stdout, inv.traced); err != nil {
			return fail(err)
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// invocation is one command line's settings.
type invocation struct {
	seed    int64
	seconds int
	traced  bool
	events  int
	k       int64
	outDir  string
	stderr  io.Writer
}

func (inv invocation) tracePath(w workload) string {
	return filepath.Join(inv.outDir, w.name+".jsonl")
}

// setup is everything between a seed and an engine ready to be measured:
// generate the stream, disorder it, encode it to the trace file, compile the
// query, build the engine and run one warm-up pass over the file.
func setup(w workload, seed int64, path string) error {
	if err := writeTrace(path, w.arrival(seed)); err != nil {
		return err
	}
	q, err := oostream.Compile(w.query, nil)
	if err != nil {
		return err
	}
	en, err := oostream.NewEngine(q, w.config())
	if err != nil {
		return err
	}
	_, _, err = replay(path, en, &sink{}, nil)
	return err
}

// child runs this program again for one phase of one workload and returns
// what it printed.
func (inv invocation) child(w workload, phase string, procs int) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traced := "0"
	if inv.traced {
		traced = "1"
	}
	cmd := exec.Command(self,
		"-phase", phase, "-workload", w.name, "-out", inv.outDir,
		"-seed", strconv.FormatInt(inv.seed, 10),
		"-seconds", strconv.Itoa(inv.seconds), "-trace", traced,
		"-k", strconv.FormatInt(inv.k, 10), "-events", strconv.Itoa(inv.events))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = inv.stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s phase: %w", phase, err)
	}
	return out.Bytes(), nil
}

// runWorkload sets the workload up several times, each in a fresh process
// timed from start to exit, then measures it in two more fresh processes
// that only read the trace file: one on one processor for the timings, one
// on two for the memory high-water mark, which is then the replay loop's
// and not the generator's.
func (inv invocation) runWorkload(w workload) (*result, error) {
	// The parent times the reference kernel around each set-up, on one
	// processor like the children it scales.
	runtime.GOMAXPROCS(1)
	var setupS []float64
	before := reference()
	for i := 0; i < setups; i++ {
		start := time.Now()
		if _, err := inv.child(w, "setup", 1); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		after := reference()
		setupS = append(setupS, wall.Seconds()*scale(before.wall, after.wall))
		before = after
	}
	out, err := inv.child(w, "measure", 1)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("measure phase printed %q: %w", out, err)
	}
	out, err = inv.child(w, "memory", 2)
	if err != nil {
		return nil, err
	}
	var fp footprint
	if err := json.Unmarshal(out, &fp); err != nil {
		return nil, fmt.Errorf("memory phase printed %q: %w", out, err)
	}
	res.EndToEnd["peak_rss_mb"] = exact(fp.PeakRSS, "MiB")
	if res.PerLayer != nil {
		res.PerLayer["driver.gomaxprocs2_kev_s"] = exact(fp.KevS, "kev/s")
	}
	res.EndToEnd["setup_s"] = typical(setupS, "s")
	if err := appendLedger(inv, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// report prints the one-line result the benchmark's caller reads: the
// end-to-end figures, or with traced the per-layer ones.
func (r *result) report(w io.Writer, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, from := endToEnd, r.EndToEnd
	if traced {
		defs, from = perLayer, r.PerLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, def := range defs {
		s, ok := from[def.Name]
		if !ok {
			return fmt.Errorf("%s: no value for %s", r.Workload, def.Name)
		}
		out.Metrics[def.Name] = value{s.Value, def.Unit}
	}
	return json.NewEncoder(w).Encode(out)
}

// describe prints every figure by name and unit for a reader.
func (r *result) describe(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d correct=%v attempted=%d failed=%d\n", r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed)
	if r.Why != "" {
		fmt.Fprintf(w, "  INCORRECT: %s\n", r.Why)
	}
	for _, def := range endToEnd {
		s := r.EndToEnd[def.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-9s", def.Name, s.Value, def.Unit)
		if s.N > 1 {
			fmt.Fprintf(w, " q1 %.4f q3 %.4f n=%d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w)
	}
	for _, def := range perLayer {
		if s, ok := r.PerLayer[def.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", def.Name, s.Value, def.Unit)
		}
	}
	fmt.Fprintf(w, "  measuring process, seconds:")
	for _, name := range []string{"warm-up", "timed", "check", "traced", "paced"} {
		if s, ok := r.Phases[name]; ok {
			fmt.Fprintf(w, " %s %.2f", name, s)
		}
	}
	fmt.Fprintln(w)
	for _, name := range r.Unresolved {
		fmt.Fprintf(w, "  %s: unresolved (inside the spread between passes), reported as 0\n", name)
	}
}
