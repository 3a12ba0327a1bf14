package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"oostream"
	"oostream/internal/plan"
)

// smokeEvents is the trace size the tests shrink every workload to.
const smokeEvents = 2000

// esprun is the path of cmd/esprun built once for the equivalence test.
var esprun string

// TestMain lets the test binary stand in for the benchmark binary when the
// driver re-executes itself for a phase.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-phase" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "esprun")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	esprun = filepath.Join(dir, "esprun")
	if out, err := exec.Command("go", "build", "-o", esprun, "oostream/cmd/esprun").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build esprun: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeTrace(t *testing.T, w workload, events int) (workload, string) {
	t.Helper()
	w = w.scaled(events)
	path := filepath.Join(t.TempDir(), w.name+".jsonl")
	if err := writeTrace(path, w.arrival(1)); err != nil {
		t.Fatal(err)
	}
	return w, path
}

// The benchmark measures what esprun does: for every workload the driver's
// rendered bytes equal esprun's output without its summary line, and two
// passes print the same bytes.
func TestDriverMatchesEsprun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w, path := smokeTrace(t, w, smokeEvents)
			q := oostream.MustCompile(w.query, nil)
			var got bytes.Buffer
			if _, _, err := replay(path, oostream.MustNewEngine(q, w.config()), &got, nil); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command(esprun, "-max-print", "0", "-query", w.query,
				"-strategy", string(w.strategy), "-k", strconv.FormatInt(w.k, 10), "-trace", path).Output()
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.TrimSuffix(out, []byte("\n"))
			want = want[:bytes.LastIndexByte(want, '\n')+1]
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("driver printed %d bytes, esprun %d", got.Len(), len(want))
			}
			if got.Len() == 0 {
				t.Fatal("no result at smoke scale")
			}
			first, err := timedPass(path, q, w.config(), 0)
			if err != nil {
				t.Fatal(err)
			}
			second, err := timedPass(path, q, w.config(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if first.Sum != second.Sum || first.Bytes != int64(got.Len()) {
				t.Fatalf("passes disagree: %+v %+v, replay printed %d bytes", first, second, got.Len())
			}
		})
	}
}

// Every workload runs end to end at smoke scale, traced, and comes out
// correct with every named figure present.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w, path := smokeTrace(t, w, smokeEvents)
			res, err := measure(w, 1, path, t.TempDir(), 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Why)
			}
			res.EndToEnd["setup_s"] = exact(1, "s")
			fp, err := memory(w, path)
			if err != nil {
				t.Fatal(err)
			}
			res.EndToEnd["peak_rss_mb"] = exact(fp.PeakRSS, "MiB")
			res.PerLayer["driver.gomaxprocs2_kev_s"] = exact(fp.KevS, "kev/s")
			for _, traced := range []bool{false, true} {
				var line bytes.Buffer
				if err := res.report(&line, traced); err != nil {
					t.Fatal(err)
				}
				var out struct {
					Metrics map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal(line.Bytes(), &out); err != nil {
					t.Fatal(err)
				}
				for name, m := range out.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
						t.Errorf("%s = %v", name, m.Value)
					}
					if !traced && m.Value == 0 {
						t.Errorf("end-to-end %s is 0", name)
					}
				}
			}
		})
	}
}

// A disorder bound below the trace's delays makes the engine drop events:
// the oracle check must count the missing results, and the command must
// print them and exit non-zero.
func TestLateEventsFail(t *testing.T) {
	w, path := smokeTrace(t, workloads[0], smokeEvents)
	w.k = 100
	res, err := measure(w, 1, path, t.TempDir(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d with K below the delays", res.Correct, res.Failed)
	}

	var stdout, stderr bytes.Buffer
	args := []string{"-workload", w.name, "-events", strconv.Itoa(smokeEvents), "-seconds", "0", "-k", "100", "-out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code == 0 {
		t.Fatalf("exit code 0 with K below the delays\n%s", stderr.String())
	}
	var line struct {
		Correct bool
		Failed  int
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &line); err != nil {
		t.Fatalf("%v in %q", err, stdout.String())
	}
	if line.Correct || line.Failed == 0 {
		t.Fatalf("printed correct=%v failed=%d", line.Correct, line.Failed)
	}
}

// Spans account for all of the traced pass: the children of each block
// cover at least 97 % of it, no span has negative self time, the self times
// add up to the run, and the bare layers explain the facade's process time
// to within a quarter.
func TestSpanAccounting(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			const blockLen = traceBlock / 2
			w, path := smokeTrace(t, w, stackSlots*blockLen)
			p, err := plan.ParseAndCompile(w.query, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(w.name)
			tp, err := tracedPass(w, p, oostream.MustCompile(w.query, nil), path, tr, blockLen)
			if err != nil {
				t.Fatal(err)
			}
			self := tr.selfTimes()
			var sum int64
			for i, s := range tr.spans {
				if self[i] < 0 {
					t.Errorf("span %d %s has self time %d", s.ID, s.Name, self[i])
				}
				sum += self[i]
				if s.Name == "block" && float64(self[i]) > 0.03*float64(s.End-s.Start) {
					t.Errorf("block %d: children leave %d of %d ns uncovered", s.ID, self[i], s.End-s.Start)
				}
			}
			root := tr.spans[0]
			if root.Name != "run" || sum != root.End-root.Start {
				t.Errorf("self times add up to %d, run took %d", sum, root.End-root.Start)
			}
			lm := layerModel{tr: tr, tp: tp, fileBytes: 1, passWall: 1, scale: 1}
			if u := lm.metrics()["driver.unattributed_share"]; u < 0 || u > 0.25 {
				t.Errorf("unattributed share %v", u)
			}
		})
	}
}

// selfTimes returns each span's self time, indexed by ID-1.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

func TestJudge(t *testing.T) {
	// Ten parent runs around 100 with an interquartile range of about 2.
	parent := []float64{99, 101, 100, 102, 98, 100, 101, 99, 100, 102}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x + d
		}
		return out
	}
	mixed := shift(5)
	mixed[0], mixed[1] = 90, 90
	for _, tc := range []struct {
		name   string
		change []float64
		better string
		want   string
	}{
		{"faster by more than the spread", shift(-5), lower, improved},
		{"slower by more than the spread", shift(5), lower, regressed},
		{"higher is better", shift(5), higher, improved},
		{"inside the parent's spread", shift(-1), lower, unresolved},
		{"eight wins of ten", mixed, higher, unresolved},
		{"identical", shift(0), lower, unresolved},
		{"too few pairs", shift(-5)[:9], lower, unresolved},
	} {
		if got := judge(parent, tc.change, tc.better); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// quartiles agrees with Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{7, 1, 3, 9, 5, 11, 13, 2, 8, 10})
	if q1 != 2.75 || med != 7.5 || q3 != 10.25 {
		t.Errorf("got %v %v %v, want 2.75 7.5 10.25", q1, med, q3)
	}
}

// BENCHMARK.json repeats the workload and metric tables of this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why == "" || strings.Contains(spec.Workloads[i].Why, "\n") || len(spec.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: %+v, want %s with a one-line why", i, spec.Workloads[i], w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, want %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
	if spec.RunSeconds != 10 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d paths %v", spec.RunSeconds, spec.Paths)
	}
}

// The ledger round-trips an invocation and -compare reads it back.
func TestLedger(t *testing.T) {
	dir := t.TempDir()
	inv := invocation{seed: 3, seconds: 1, outDir: dir}
	res := &result{Workload: workloads[0].name, Seed: 3, Correct: true, Attempted: 1,
		EndToEnd: map[string]summary{"throughput_kev_s": {Value: 10, Unit: "kev/s", Q1: 8, Q3: 11, N: 5}}}
	for i := 0; i < 2; i++ {
		if err := appendLedger(inv, res); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "history", "*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("ledger files %v %v", files, err)
	}
	got, err := readLedger(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := got[workloads[0].name]["throughput_kev_s"]; len(v) != 2 || v[0] != 10 {
		t.Fatalf("read back %v", v)
	}
	var out bytes.Buffer
	if err := compareLedgers(&out, files[0], files[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), unresolved) {
		t.Errorf("comparison of a ledger with itself:\n%s", out.String())
	}
}
