package oostream

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"oostream/internal/gen"
)

func rfidQuery(t *testing.T) *Query {
	t.Helper()
	q, err := Compile(`
		PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
		WHERE s.id = e.id AND s.id = c.id
		WITHIN 10s`, gen.RFIDSchema())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCompileWithSchema(t *testing.T) {
	q := rfidQuery(t)
	if q.PatternLen() != 2 || !q.HasNegation() || q.Window() != 10_000 {
		t.Errorf("query accessors: len=%d neg=%v win=%d", q.PatternLen(), q.HasNegation(), q.Window())
	}
	if !strings.Contains(q.Source(), "SEQ(SHELF s") {
		t.Errorf("Source() = %q", q.Source())
	}
	// Schema violations are compile errors.
	if _, err := Compile("PATTERN SEQ(SHELF s) WHERE s.nope = 1 WITHIN 5", gen.RFIDSchema()); err == nil {
		t.Error("bad attribute should fail compilation")
	}
	if _, err := Compile("PATTERN SEQ(", nil); err == nil {
		t.Error("syntax error should fail compilation")
	}
}

func TestAllStrategiesAgreeOnSortedInput(t *testing.T) {
	q := rfidQuery(t)
	events := gen.RFID(gen.DefaultRFID(200, 5))
	var ref []Match
	for i, s := range Strategies() {
		en, err := NewEngine(q, Config{Strategy: s, K: 1000})
		if err != nil {
			t.Fatal(err)
		}
		got := en.ProcessAll(events)
		if i == 0 {
			ref = got
			if len(ref) == 0 {
				t.Fatal("no shoplifting matches in sanity workload")
			}
			continue
		}
		if ok, diff := SameResults(ref, got); !ok {
			t.Errorf("strategy %s differs on sorted input:\n%s", s, diff)
		}
	}
}

func TestExactStrategiesAgreeUnderDisorder(t *testing.T) {
	q := rfidQuery(t)
	sorted := gen.RFID(gen.DefaultRFID(200, 6))
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.2, MaxDelay: 2000, Seed: 7})

	want := MustNewEngine(q, Config{}).ProcessAll(sorted)
	for _, s := range []Strategy{StrategyNative, StrategyKSlack, StrategySpeculate} {
		got := MustNewEngine(q, Config{Strategy: s, K: 2000}).ProcessAll(shuffled)
		if ok, diff := SameResults(want, got); !ok {
			t.Errorf("strategy %s wrong under disorder:\n%s", s, diff)
		}
	}
}

func TestAutoSeqAssignment(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	en := MustNewEngine(q, Config{K: 10})
	en.Process(Event{Type: "A", TS: 1})
	out := en.Process(Event{Type: "B", TS: 2})
	if len(out) != 1 {
		t.Fatalf("matches = %v", out)
	}
	if out[0].Events[0].Seq == 0 || out[0].Events[1].Seq == 0 {
		t.Error("auto seq not assigned")
	}
	if out[0].Events[0].Seq == out[0].Events[1].Seq {
		t.Error("seqs must be unique")
	}
}

func TestConfigValidation(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a) WITHIN 10", nil)
	if _, err := NewEngine(q, Config{K: -1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := NewEngine(q, Config{Strategy: "bogus"}); err == nil {
		t.Error("bogus strategy accepted")
	}
	if _, err := NewEngine(q, Config{Strategy: "inorder"}); err == nil {
		t.Error("the in-order reference kernel accepted as a strategy")
	}
	en, err := NewEngine(q, Config{})
	if err != nil || en.Strategy() != "native" {
		t.Errorf("default strategy: %v %v", en, err)
	}
}

func TestEngineRunPipeline(t *testing.T) {
	q := rfidQuery(t)
	sorted := gen.RFID(gen.DefaultRFID(100, 8))
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.2, MaxDelay: 1000, Seed: 9})
	want := MustNewEngine(q, Config{K: 1000}).ProcessAll(shuffled)

	en := MustNewEngine(q, Config{K: 1000})
	in := make(chan Event)
	out := make(chan Match, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- en.Run(context.Background(), in, out) }()
	go func() {
		for _, e := range shuffled {
			in <- e
		}
		close(in)
	}()
	var got []Match
	for m := range out {
		got = append(got, m)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if ok, diff := SameResults(want, got); !ok {
		t.Fatalf("pipeline output differs:\n%s", diff)
	}
}

// TestRunResultsCancelWithOutUnread: cancellation must end Run even when
// nobody reads its results any more, and leave no goroutine behind.
func TestRunResultsCancelWithOutUnread(t *testing.T) {
	q := MustCompile("PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 10s", gen.RFIDSchema())
	events := gen.RFID(gen.DefaultRFID(200, 8))
	// events[stuck] completes the second result: the test reads the first
	// and walks away, so Run, sending the second, has taken its last event.
	stuck, ref := -1, MustNewEngine(q, Config{})
	for n := 0; n < 2; {
		stuck++
		n += len(ref.Process(events[stuck]))
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	en := MustNewEngine(q, Config{})
	in := make(chan Event)
	out := make(chan Match)
	fed := make(chan struct{})
	go func() {
		defer close(in)
		for i, e := range events {
			select {
			case in <- e:
			case <-ctx.Done():
				return
			}
			if i == stuck {
				close(fed)
			}
		}
	}()
	errCh := make(chan error, 1)
	go func() { errCh <- en.Run(ctx, in, out) }()
	<-out // one result read, then the consumer walks away
	<-fed
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run still blocked 2s after cancellation")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunSealsEngine: a Run that ends on end-of-stream has flushed the
// engine, so Process is refused as it is after Flush; a cancelled Run
// leaves the engine open.
func TestRunSealsEngine(t *testing.T) {
	q := pairQuery(t)
	t.Run("Run/end-of-stream", func(t *testing.T) {
		en := MustNewEngine(q, Config{K: 10})
		in := make(chan Event, 2)
		in <- pairEvent("A", 1, 1, 7)
		in <- pairEvent("B", 2, 2, 7)
		close(in)
		if err := en.Run(context.Background(), in, make(chan Match, 4)); err != nil {
			t.Fatal(err)
		}
		if ms := en.Process(pairEvent("A", 3, 3, 7)); ms != nil || !errors.Is(en.Err(), errSealed) {
			t.Errorf("Process after a completed run: %v, Err %v, want the sealed refusal", ms, en.Err())
		}
		if ms := en.Flush(); ms != nil {
			t.Errorf("Flush after a completed run returned %v", ms)
		}
	})
	t.Run("Run/cancelled", func(t *testing.T) {
		en := MustNewEngine(q, Config{K: 10})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := en.Run(ctx, make(chan Event), make(chan Match)); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		en.Process(pairEvent("A", 1, 1, 7))
		if err := en.Err(); err != nil {
			t.Errorf("Process after a cancelled run refused: %v", err)
		}
	})
}

func TestMetricsExposed(t *testing.T) {
	q := rfidQuery(t)
	sorted := gen.RFID(gen.DefaultRFID(100, 1))
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 1000, Seed: 2})
	en := MustNewEngine(q, Config{K: 1000})
	en.ProcessAll(shuffled)
	m := en.Metrics()
	if m.EventsIn == 0 || m.EventsOOO == 0 || m.PeakState == 0 {
		t.Errorf("metrics look empty: %+v", m)
	}
	if en.StateSize() < 0 {
		t.Error("state size negative")
	}
}

// TestHugeWindowRefused: the engines purge buffered negatives below
// clock − K − 2·WITHIN. With WITHIN at 2^62 ms or more that product wraps, the
// horizon lands above every timestamp, the negative is purged while the match
// it cancels is still open, and the match comes out. Query analysis refuses a
// window above 2^60 ms, and at that limit the arithmetic still holds: the
// negative survives 200 events of purge passes and cancels the match, keyed
// and unkeyed.
func TestHugeWindowRefused(t *testing.T) {
	const pattern = "PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id AND a.id = n.id WITHIN "
	for _, w := range []string{"5000000000000000000", "1152921504606846977"} {
		_, err := Compile(pattern+w, nil)
		if err == nil || !strings.Contains(err.Error(), "exceeds the limit of 1152921504606846976ms") {
			t.Errorf("WITHIN %s: Compile error = %v, want a semantic error naming the limit", w, err)
		}
	}
	events := []Event{
		NewEvent("A", 100, Attrs{"id": Int(1)}),
		NewEvent("N", 150, Attrs{"id": Int(1)}),
	}
	for i := 0; i < 200; i++ {
		events = append(events, NewEvent("A", Time(200+i), Attrs{"id": Int(2)}))
	}
	events = append(events, NewEvent("B", 500, Attrs{"id": Int(1)}))
	for _, w := range []string{"6s", "1152921504606846976"} {
		q, err := Compile(pattern+w, nil)
		if err != nil {
			t.Fatalf("WITHIN %s: %v", w, err)
		}
		for _, unkeyed := range []bool{false, true} {
			run := q
			if unkeyed {
				run = withoutKey(q)
			}
			if got := MustNewEngine(run, Config{K: 10}).ProcessAll(events); len(got) != 0 {
				t.Errorf("WITHIN %s unkeyed=%v: %d matches, want 0 (N@150 cancels A@100 … B@500): %v", w, unkeyed, len(got), got)
			}
		}
	}
}

// withoutKey returns q with no partition attribute: the kernel then files
// every event under the zero key and evaluates every key equality, the
// layout of a query that is not partitionable.
func withoutKey(q *Query) *Query {
	p := *q.plan
	p.PartitionKey = ""
	return &Query{plan: &p}
}
