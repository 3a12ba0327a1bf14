package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oostream"
)

// harvest runs a provenance-enabled engine over a small disordered stream
// and writes the two espexplain inputs: the state snapshot (JSON) and the
// flight dump (JSON Lines).
func harvest(t *testing.T) (statePath, flightPath string, matchKeys []string) {
	t.Helper()
	q := oostream.MustCompile("PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 50", nil)
	flight := oostream.NewFlightRecorder(256)
	en := oostream.MustNewEngine(q, oostream.Config{
		K:          100,
		Provenance: true,
		Trace:      flight,
	})
	events := []oostream.Event{
		oostream.NewEvent("B", 20, map[string]oostream.Value{"id": oostream.Int(1)}),
		oostream.NewEvent("A", 10, map[string]oostream.Value{"id": oostream.Int(1)}),
		oostream.NewEvent("A", 100, map[string]oostream.Value{"id": oostream.Int(2)}),
		oostream.NewEvent("B", 110, map[string]oostream.Value{"id": oostream.Int(2)}),
	}
	var ms []oostream.Match
	for i, e := range events {
		e.Seq = oostream.Seq(i + 1)
		ms = append(ms, en.Process(e)...)
	}
	ms = append(ms, en.Flush()...)
	for _, m := range ms {
		if m.Prov == nil {
			t.Fatalf("provenance enabled but match %s carries no lineage", m.Key())
		}
		matchKeys = append(matchKeys, m.Prov.MatchKey())
	}
	if len(matchKeys) == 0 {
		t.Fatal("no matches emitted")
	}

	dir := t.TempDir()
	statePath = filepath.Join(dir, "state.json")
	raw, err := json.Marshal(en.StateSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(statePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	flightPath = filepath.Join(dir, "flight.jsonl")
	var buf bytes.Buffer
	if err := flight.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flightPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return statePath, flightPath, matchKeys
}

func TestSummary(t *testing.T) {
	statePath, flightPath, _ := harvest(t)
	var out bytes.Buffer
	if err := run([]string{"-state", statePath, "-flight", flightPath}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"engine: native", "clock=110", "lineage:", "flight:", "emit"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
}

func TestExplainMatch(t *testing.T) {
	statePath, flightPath, keys := harvest(t)
	var out bytes.Buffer
	err := run([]string{"-state", statePath, "-flight", flightPath, "-match", keys[0]}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "verdict: emitted by") {
		t.Errorf("match verdict missing:\n%s", got)
	}
	if !strings.Contains(got, "admit") || !strings.Contains(got, "push") {
		t.Errorf("contributing-event timeline missing:\n%s", got)
	}
}

func TestExplainMatchUnknown(t *testing.T) {
	_, flightPath, _ := harvest(t)
	var out bytes.Buffer
	if err := run([]string{"-flight", flightPath, "-match", "998|999"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no emit or retract for this identity") {
		t.Errorf("unknown-match verdict missing:\n%s", out.String())
	}
}

func TestExplainEvent(t *testing.T) {
	_, flightPath, keys := harvest(t)
	firstSeq := strings.Split(keys[0], "|")[0]
	var out bytes.Buffer
	if err := run([]string{"-flight", flightPath, "-event", firstSeq}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verdict: admitted and cited by") {
		t.Errorf("event verdict missing:\n%s", out.String())
	}
}

// TestExplainDroppedEvent: the engine that drops an event as late traces
// the drop, in memory and durable alike, so the verdict is the same.
func TestExplainDroppedEvent(t *testing.T) {
	q := oostream.MustCompile("PATTERN SEQ(A a, B b) WITHIN 50", nil)
	for _, durable := range []bool{false, true} {
		flight := oostream.NewFlightRecorder(64)
		cfg := oostream.Config{K: 5, Provenance: true, Trace: flight}
		en := oostream.MustNewEngine(q, cfg)
		dir := t.TempDir()
		if durable {
			var err error
			if en, err = oostream.NewSupervisedEngine(q, cfg, oostream.SupervisorConfig{Dir: filepath.Join(dir, "state"), DisableFsync: true}); err != nil {
				t.Fatal(err)
			}
			if _, err := en.Start(); err != nil {
				t.Fatal(err)
			}
		}
		en.Process(oostream.Event{Type: "A", TS: 100, Seq: 1})
		en.Process(oostream.Event{Type: "A", TS: 10, Seq: 2}) // far below clock−K: dropped
		en.Flush()
		en.Close()

		flightPath := filepath.Join(dir, "flight.jsonl")
		var buf bytes.Buffer
		if err := flight.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flightPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-flight", flightPath, "-event", "2"}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "verdict: DROPPED at admission") {
			t.Errorf("durable=%v: drop verdict missing:\n%s", durable, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"no inputs", []string{}},
		{"match without flight", []string{"-state", "x.json", "-match", "1|2"}},
		{"missing file", []string{"-flight", "/nonexistent.jsonl"}},
		{"bad match key", []string{"-flight", "f", "-match", "a|b"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tt.args, &out); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// TestStateSharedStack: positions of one type with no local predicate
// share one stack. The snapshot counts it once, at its first position, and
// names the stack each position reads; the rendering shows its depth at
// every position that reads it, marked as shared.
func TestStateSharedStack(t *testing.T) {
	q := oostream.MustCompile("PATTERN SEQ(T a, T b, T c) WITHIN 50", nil)
	en := oostream.MustNewEngine(q, oostream.Config{K: 100})
	for i, ts := range []oostream.Time{3, 1, 2} {
		e := oostream.NewEvent("T", ts, nil)
		e.Seq = oostream.Seq(i + 1)
		en.Process(e)
	}
	snap := en.StateSnapshot()
	if got, want := fmt.Sprint(snap.StackDepths, snap.StackShared), "[3 0 0] [0 0 0]"; got != want {
		t.Fatalf("stack depths and sharing %s, want %s", got, want)
	}
	if en.StateSize() != 3 {
		t.Fatalf("StateSize %d, want 3: the shared stack counted once", en.StateSize())
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-state", path}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "stack depths by position: [3 3(shared with 0) 3(shared with 0)]"; !strings.Contains(out.String(), want) {
		t.Errorf("state rendering misses %q:\n%s", want, out.String())
	}
	// A document naming a position that is not there renders its depths
	// as they are.
	if err := os.WriteFile(path, []byte(`{"engine":"native","stackDepths":[1,2],"stackShared":[0,7]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-state", path}, &out); err != nil || !strings.Contains(out.String(), "[1 2]") {
		t.Errorf("state with a stray stackShared: %v\n%s", err, out.String())
	}
}
