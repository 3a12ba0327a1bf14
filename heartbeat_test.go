package oostream

import (
	"testing"

	"oostream/internal/gen"
)

// Heartbeats (punctuation) let engines make progress through stream
// silence: sealing pending negation output and purging state without a new
// event arriving.

func negationQuery(t *testing.T) *Query {
	t.Helper()
	return MustCompile("PATTERN SEQ(A a, !(N n), B b) WITHIN 100", nil)
}

func TestAdvanceSealsNativeNegation(t *testing.T) {
	q := negationQuery(t)
	en := MustNewEngine(q, Config{Strategy: StrategyNative, K: 50})
	en.Process(Event{Type: "A", TS: 10, Seq: 1})
	if out := en.Process(Event{Type: "B", TS: 30, Seq: 2}); len(out) != 0 {
		t.Fatal("must pend until the gap seals")
	}
	// Heartbeat at 79: safe clock 29 < 30, still pending.
	if out := en.Advance(79); len(out) != 0 {
		t.Fatalf("sealed too early: %v", out)
	}
	// Heartbeat at 80: safe clock 30 >= 30, seals.
	out := en.Advance(80)
	if len(out) != 1 || out[0].Key() != "1|2" {
		t.Fatalf("heartbeat should seal the match, got %v", out)
	}
	// Backwards heartbeat is a no-op.
	if out := en.Advance(5); len(out) != 0 {
		t.Fatalf("backward heartbeat emitted: %v", out)
	}
}

func TestAdvanceReleasesKSlackBuffer(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	en := MustNewEngine(q, Config{Strategy: StrategyKSlack, K: 50})
	en.Process(Event{Type: "A", TS: 10, Seq: 1})
	if out := en.Process(Event{Type: "B", TS: 20, Seq: 2}); len(out) != 0 {
		t.Fatal("buffered events should not have been released yet")
	}
	out := en.Advance(100) // watermark 50: releases both, match emits
	if len(out) != 1 || out[0].Key() != "1|2" {
		t.Fatalf("heartbeat should flush the buffer into a match, got %v", out)
	}
}

func TestAdvanceForwardsThroughKSlackToTrailingNegation(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b, !(N n)) WITHIN 40", nil)
	en := MustNewEngine(q, Config{Strategy: StrategyKSlack, K: 10})
	en.Process(Event{Type: "A", TS: 10, Seq: 1})
	en.Process(Event{Type: "B", TS: 20, Seq: 2})
	// Watermark must pass the trailing gap end (first+W = 50) inside the
	// inner engine, i.e. outer heartbeat 60+K.
	out := en.Advance(70)
	if len(out) != 1 || out[0].Key() != "1|2" {
		t.Fatalf("trailing negation not sealed through the levee: %v", out)
	}
}

func TestAdvanceExpiresSpeculativeVulnerability(t *testing.T) {
	q := negationQuery(t)
	en := MustNewEngine(q, Config{Strategy: StrategySpeculate, K: 50})
	en.Process(Event{Type: "A", TS: 10, Seq: 1})
	if out := en.Process(Event{Type: "B", TS: 30, Seq: 2}); len(out) != 1 {
		t.Fatal("speculative insert expected")
	}
	if out := en.Advance(80); len(out) != 0 {
		t.Fatalf("advance emitted: %v", out)
	}
	// The negative now violates the bound and cannot retract anything.
	if out := en.Process(Event{Type: "N", TS: 20, Seq: 3}); len(out) != 0 {
		t.Fatalf("sealed speculative match retracted: %v", out)
	}
}

func TestAdvancePurgesState(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WITHIN 10", nil)
	en := MustNewEngine(q, Config{Strategy: StrategyNative, K: 10, PurgeEvery: 1_000_000})
	for i := 0; i < 100; i++ {
		en.Process(Event{Type: "A", TS: Time(i), Seq: Seq(i + 1)})
	}
	if en.StateSize() != 100 {
		t.Fatalf("setup state = %d", en.StateSize())
	}
	en.Advance(1_000) // far future: everything purgeable
	if en.StateSize() != 0 {
		t.Errorf("heartbeat did not purge: state = %d", en.StateSize())
	}
}

func TestAdvanceEquivalentToEventDrivenRun(t *testing.T) {
	// Interleaving heartbeats must not change the result set.
	q := negationQuery(t)
	sorted := gen.Uniform(200, []string{"A", "B", "N"}, 3, 5, 31)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 50, Seed: 32})

	plain := MustNewEngine(q, Config{K: 50}).ProcessAll(shuffled)

	en := MustNewEngine(q, Config{K: 50})
	var got []Match
	for i, e := range shuffled {
		got = append(got, en.Process(e)...)
		if i%10 == 0 {
			got = append(got, en.Advance(e.TS)...)
		}
	}
	got = append(got, en.Flush()...)
	if ok, diff := SameResults(plain, got); !ok {
		t.Fatalf("heartbeats changed results:\n%s", diff)
	}
}
