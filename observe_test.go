package oostream

import (
	"strings"
	"testing"
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
