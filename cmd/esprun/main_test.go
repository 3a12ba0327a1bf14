package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oostream"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/trace"
)

func writeTrace(t *testing.T, events []event.Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewWriter(f)
	if err := w.WriteAll(events); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func sampleEvents() []event.Event {
	return []event.Event{
		{Type: "B", TS: 20, Seq: 2}, // out of order vs. the A below
		{Type: "A", TS: 10, Seq: 1},
		{Type: "A", TS: 100, Seq: 3},
		{Type: "B", TS: 110, Seq: 4},
	}
}

func TestRunFindsMatches(t *testing.T) {
	path := writeTrace(t, sampleEvents())
	var out bytes.Buffer
	err := run([]string{
		"-query", "PATTERN SEQ(A a, B b) WITHIN 50",
		"-trace", path, "-k", "100",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "matches=2") {
		t.Errorf("output: %s", out.String())
	}
	if !strings.Contains(out.String(), "strategy=native") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunFromStdin(t *testing.T) {
	var traceBuf bytes.Buffer
	w := trace.NewWriter(&traceBuf)
	if err := w.WriteAll(sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{
		"-query", "PATTERN SEQ(A a, B b) WITHIN 50",
		"-strategy", "kslack", "-k", "100", "-quiet",
	}, &traceBuf, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "matches=2") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunQueryFile(t *testing.T) {
	qPath := filepath.Join(t.TempDir(), "q.esp")
	if err := os.WriteFile(qPath, []byte("PATTERN SEQ(A a, B b) WITHIN 50"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := writeTrace(t, sampleEvents())
	var out bytes.Buffer
	if err := run([]string{"-query-file", qPath, "-trace", path}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
}

func TestRunMaxPrint(t *testing.T) {
	path := writeTrace(t, sampleEvents())
	var out bytes.Buffer
	err := run([]string{
		"-query", "PATTERN SEQ(A a, B b) WITHIN 50",
		"-trace", path, "-k", "100", "-max-print", "1",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 more matches") {
		t.Errorf("truncation notice missing: %s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"no query", []string{}},
		{"bad query", []string{"-query", "PATTERN"}},
		{"bad strategy", []string{"-query", "PATTERN SEQ(A a) WITHIN 5", "-strategy", "bogus"}},
		{"missing trace", []string{"-query", "PATTERN SEQ(A a) WITHIN 5", "-trace", "/nonexistent"}},
		{"missing query file", []string{"-query-file", "/nonexistent"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tt.args, strings.NewReader(""), &out); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestRunPlan(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-query", "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 50",
		"-plan",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan for:", "sequence:", "partitionable by: id"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("plan missing %q: %s", want, out.String())
		}
	}
}

// TestRunPlanGolden: -plan prints the same bytes on every run. A query
// partitionable by two attributes lists them sorted, the key marked (it was
// printed in map order, so either order came out).
func TestRunPlanGolden(t *testing.T) {
	const want = `plan for: PATTERN SEQ(A a, B b) WHERE ((a.x = b.x) AND (a.y = b.y)) WITHIN 10ms
window: 10ms
sequence:
  [0] A AS a
  [1] B AS b
cross predicates (fire when all referenced slots bind):
  slots {0,1}: (a.x = b.x)
  slots {0,1}: (a.y = b.y)
partitionable by: x (key), y
`
	for i := 0; i < 200; i++ {
		var out bytes.Buffer
		err := run([]string{"-plan", "-query", "PATTERN SEQ(A a, B b) WHERE a.x = b.x AND a.y = b.y WITHIN 10"}, strings.NewReader(""), &out)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != want {
			t.Fatalf("run %d printed\n%s\nwant\n%s", i, got, want)
		}
	}
}

// TestRunExplain: -explain enables provenance and prints one lineage line
// under each match, citing the contributing events.
func TestRunExplain(t *testing.T) {
	path := writeTrace(t, sampleEvents())
	var out bytes.Buffer
	err := run([]string{
		"-query", "PATTERN SEQ(A a, B b) WITHIN 50",
		"-trace", path, "-k", "100", "-explain",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "matches=2") {
		t.Fatalf("output: %s", got)
	}
	if n := strings.Count(got, "lineage: insert"); n != 2 {
		t.Errorf("want 2 lineage lines, got %d:\n%s", n, got)
	}
	for _, want := range []string{"A@10#1", "B@20#2", "window=[10,60]"} {
		if !strings.Contains(got, want) {
			t.Errorf("lineage missing %q:\n%s", want, got)
		}
	}
}

// TestRunResume: a supervised run killed mid-stream resumes from its
// checkpoint directory over the same trace, printing only the matches the
// first run never delivered — exactly-once output across invocations.
func TestRunResume(t *testing.T) {
	events := sampleEvents()
	path := writeTrace(t, events)
	dir := filepath.Join(t.TempDir(), "state")
	const query = "PATTERN SEQ(A a, B b) WITHIN 50"

	// First "invocation": drive the supervised engine over a prefix and
	// crash it (the CLI path always flushes at EOF, which would seal the
	// stream; a real kill leaves no flush marker, which is what Kill
	// simulates).
	q, err := oostream.Compile(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	sen, err := oostream.NewSupervisedEngine(q, oostream.Config{K: 100},
		oostream.SupervisorConfig{Dir: dir, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sen.Start(); err != nil {
		t.Fatal(err)
	}
	pre := 0
	for _, e := range events[:2] {
		pre += len(sen.Process(e))
	}
	if err := sen.Err(); err != nil {
		t.Fatal(err)
	}
	if pre != 1 {
		t.Fatalf("prefix emitted %d matches, want 1", pre)
	}
	sen.Kill()

	// Without -resume the CLI must refuse the non-empty directory.
	var out bytes.Buffer
	err = run([]string{"-query", query, "-trace", path, "-k", "100", "-checkpoint-dir", dir},
		strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("non-empty dir accepted without -resume: %v", err)
	}

	// Resume over the FULL trace: already-processed events are skipped by
	// admission control, so only the second match is printed.
	out.Reset()
	err = run([]string{"-query", query, "-trace", path, "-k", "100",
		"-checkpoint-dir", dir, "-resume"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "matches=1") {
		t.Errorf("resume output: %s", out.String())
	}
	if !strings.Contains(out.String(), "strategy=supervised(native)") {
		t.Errorf("resume output: %s", out.String())
	}
}

func TestRunAdaptiveFlags(t *testing.T) {
	path := writeTrace(t, sampleEvents())
	for _, flags := range [][]string{
		{"-adaptive", "-limits", `{"maxBufferedEvents":100000}`},
		// -adaptive enables the controller whatever the JSON leaves out.
		{"-adaptive", "-adaptive-config", `{"quantile":0.99}`},
	} {
		var out bytes.Buffer
		err := run(append([]string{
			"-query", "PATTERN SEQ(A a, B b) WITHIN 50",
			"-trace", path, "-k", "100",
		}, flags...), strings.NewReader(""), &out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "matches=2") {
			t.Errorf("%v output: %s", flags, out.String())
		}
		if !strings.Contains(out.String(), "adaptive: k=") {
			t.Errorf("%v: adaptive summary missing: %s", flags, out.String())
		}
	}
}

func TestRunHybridStrategy(t *testing.T) {
	path := writeTrace(t, sampleEvents())
	var out bytes.Buffer
	err := run([]string{
		"-query", "PATTERN SEQ(A a, B b) WITHIN 50",
		"-trace", path, "-k", "100", "-strategy", "hybrid",
		"-slo", `{"maxLatency":2000,"maxRetractionRate":0.05}`,
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "strategy=hybrid matches=2") {
		t.Errorf("output: %s", out.String())
	}
	if !strings.Contains(out.String(), "mode=") {
		t.Errorf("hybrid mode missing from adaptive summary: %s", out.String())
	}
}

func TestRunAdaptiveFlagErrors(t *testing.T) {
	path := writeTrace(t, sampleEvents())
	for _, args := range [][]string{
		{"-query", "PATTERN SEQ(A a, B b) WITHIN 50", "-trace", path, "-adaptive-config", "{not json"},
		{"-query", "PATTERN SEQ(A a, B b) WITHIN 50", "-trace", path, "-slo", "{not json"},
		{"-query", "PATTERN SEQ(A a, B b) WITHIN 50", "-trace", path, "-limits", "{not json"},
		{"-query", "PATTERN SEQ(A a, B b) WITHIN 50", "-trace", path, "-strategy", "inorder", "-adaptive"},
		// Unknown keys: a typo, and settings that are no longer settable.
		{"-query", "PATTERN SEQ(A a, B b) WITHIN 50", "-trace", path, "-adaptive-config", `{"quantil":0.99}`},
		{"-query", "PATTERN SEQ(A a, B b) WITHIN 50", "-trace", path, "-adaptive-config", `{"enabled":true,"maxK":500}`},
		{"-query", "PATTERN SEQ(A a, B b) WITHIN 50", "-trace", path, "-adaptive-config", `{"enabled":true,"tolerance":0.2}`},
		{"-query", "PATTERN SEQ(A a, B b) WITHIN 50", "-trace", path, "-slo", `{"maxLatncy":2000}`},
		{"-query", "PATTERN SEQ(A a, B b) WITHIN 50", "-trace", path, "-limits", `{"maxLag":500,"maxK":400}`},
	} {
		if err := run(args, strings.NewReader(""), &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSummaryGoldenUnkeyed pins the summary line of a query with no
// partition attribute, byte for byte as printed at the parent of the commit
// that filed such a query's state under one zero key group: peak state,
// counts and logical latency do not move with the kernel's layout.
func TestRunSummaryGoldenUnkeyed(t *testing.T) {
	sorted := gen.Uniform(400, []string{"A", "B", "N"}, 3, 2, 7)
	path := writeTrace(t, gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 40, Seed: 8}))
	for strategy, want := range map[string]string{
		"native":    "strategy=native matches=170 in=400 ooo=96 late=0 matches=170 retract=0 peak=160 lat(mean=39.8 p99=50)\n",
		"speculate": "strategy=speculate matches=216 in=400 ooo=96 late=0 matches=193 retract=23 peak=161 lat(mean=5.4 p99=35)\n",
	} {
		var out bytes.Buffer
		err := run([]string{
			"-query", "PATTERN SEQ(A a, !(N n), B b) WITHIN 60",
			"-strategy", strategy, "-trace", path, "-k", "40", "-quiet",
		}, strings.NewReader(""), &out)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != want {
			t.Errorf("%s summary\n got %q\nwant %q", strategy, got, want)
		}
	}
}
