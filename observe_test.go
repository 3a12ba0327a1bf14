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

// TestHeartbeatReleasesOrderedOutput drives an ordered-output engine into a
// state where a completed match is held by the order buffer (its timestamp
// is above the watermark), then checks a heartbeat alone releases it.
func TestHeartbeatReleasesOrderedOutput(t *testing.T) {
	q := pairQuery(t)
	en := MustNewEngine(q, Config{K: 50, OrderedOutput: true})
	var got []Match
	got = append(got, en.Process(pairEvent("A", 10, 1, 7))...)
	got = append(got, en.Process(pairEvent("B", 20, 2, 7))...)
	if len(got) != 0 {
		t.Fatalf("match released before the watermark reached it: %d matches", len(got))
	}
	released := en.Advance(100)
	if len(released) != 1 {
		t.Fatalf("Advance released %d matches, want 1", len(released))
	}
	if ms := en.Flush(); len(ms) != 0 {
		t.Fatalf("Flush re-emitted %d matches after the heartbeat released them", len(ms))
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
