package oostream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"oostream/internal/gen"
)

func pairQuery(t *testing.T) *Query {
	t.Helper()
	return MustCompile("PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100", nil)
}

func pairEvent(typ string, ts Time, seq Seq, id int64) Event {
	return Event{Type: typ, TS: ts, Seq: seq, Attrs: Attrs{"id": Int(id)}.List()}
}

func TestProcessAfterFlushPanics(t *testing.T) {
	q := pairQuery(t)
	for _, strat := range Strategies() {
		t.Run(string(strat), func(t *testing.T) {
			en := MustNewEngine(q, Config{Strategy: strat, K: 10})
			en.Process(pairEvent("A", 1, 1, 7))
			en.Flush()
			if ms := en.Process(pairEvent("B", 2, 2, 7)); ms != nil {
				t.Fatalf("Process after Flush emitted %v", ms)
			}
			if err := en.Err(); err == nil || !strings.Contains(err.Error(), "sealed") {
				t.Fatalf("Err after Process after Flush = %v, want the sealed refusal", err)
			}
		})
	}
}

func TestFlushIsIdempotent(t *testing.T) {
	q := pairQuery(t)
	en := MustNewEngine(q, Config{K: 10})
	en.Process(pairEvent("A", 1, 1, 7))
	en.Process(pairEvent("B", 2, 2, 7))
	first := en.Flush()
	if len(first) != 0 {
		// The match was emitted during Process for this query; Flush output
		// depends on pending negation state, so only the second call is
		// pinned down.
		t.Logf("first Flush returned %d matches", len(first))
	}
	if again := en.Flush(); again != nil {
		t.Fatalf("second Flush returned %d matches, want nil", len(again))
	}
}

func TestConfigObserverAndTrace(t *testing.T) {
	q := pairQuery(t)
	reg := NewObserver()
	var emits int
	cfg := Config{
		K:        10,
		Observer: reg,
		Trace: TraceFunc(func(ev TraceEvent) {
			if ev.Op == OpEmit {
				emits++
			}
		}),
	}
	en := MustNewEngine(q, cfg)
	en.Process(pairEvent("A", 1, 1, 7))
	en.Process(pairEvent("B", 2, 2, 7))
	en.Flush()
	if emits != 1 {
		t.Fatalf("trace hook saw %d emits, want 1", emits)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`oostream_events_in_total{engine="native"} 2`,
		`oostream_matches_total{engine="native"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("prometheus output missing %q\n%s", want, sb.String())
		}
	}
}

func TestRawAccessor(t *testing.T) {
	q := pairQuery(t)
	en := MustNewEngine(q, Config{K: 10})
	raw := en.Raw()
	if raw.Name() != en.Strategy() {
		t.Fatalf("Raw().Name() = %q, Strategy() = %q", raw.Name(), en.Strategy())
	}
	if raw.StateSize() != en.StateSize() {
		t.Fatal("Raw() does not share state with the facade")
	}
}

// expositionRegistry is a registry populated by a native engine with
// lineage and a supervised one over the same disordered RFID stream, with no latency
// sampling, so every value it renders repeats run for run except the wall
// time of the last checkpoint, which expositionText zeroes.
func expositionRegistry(t *testing.T) *Observer {
	t.Helper()
	q := MustCompile("PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WHERE s.id = e.id AND s.id = c.id WITHIN 6s", gen.RFIDSchema())
	events := gen.Shuffle(gen.RFID(gen.DefaultRFID(600, 1)), gen.Disorder{Ratio: 0.3, MaxDelay: 2000, Seed: 1})
	reg := NewObserver()
	cfg := Config{K: 2000, Observer: reg}
	lineage := cfg
	lineage.Provenance = true
	en := MustNewEngine(q, lineage)
	en.ProcessAll(append([]Event(nil), events...))
	sup, err := NewSupervisedEngine(q, cfg, SupervisorConfig{Dir: t.TempDir(), CheckpointEvery: 250, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()
	if _, err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		sup.Process(e)
	}
	sup.Flush()
	if err := sup.Err(); err != nil {
		t.Fatal(err)
	}
	return reg
}

var checkpointWallTime = regexp.MustCompile(`(oostream_checkpoint_duration_ns\{[^}]*\} |"checkpoint_nanos": )[0-9]+`)

// expositionText renders reg's Prometheus text and indented /varz JSON with
// the checkpoint wall time zeroed.
func expositionText(t *testing.T, reg *Observer) (prom, varz []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := json.MarshalIndent(reg.Varz(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	zero := []byte("${1}0")
	return checkpointWallTime.ReplaceAll(buf.Bytes(), zero), checkpointWallTime.ReplaceAll(append(doc, '\n'), zero)
}

// TestExpositionGolden holds /metrics and /varz to the bytes an earlier
// version rendered for the same registry (testdata/exposition, written
// before the instrument set was folded into one table): metric names,
// /varz keys, HELP text, order and values do not move.
func TestExpositionGolden(t *testing.T) {
	prom, varz := expositionText(t, expositionRegistry(t))
	for name, got := range map[string][]byte{"metrics.txt": prom, "varz.json": varz} {
		want, err := os.ReadFile(filepath.Join("testdata", "exposition", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata/exposition/%s:\n%s", name, name, firstDiff(got, want))
		}
	}
}

// firstDiff names the first line at which got and want part.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return ""
}
