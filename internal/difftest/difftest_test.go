package difftest

import (
	"fmt"
	"strings"
	"testing"

	"oostream"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

// trialCount is the randomized-trial budget of the main differential test.
// The acceptance bar is ≥500 trials in well under a minute; trials run as
// parallel subtests.
const trialCount = 500

// TestDifferentialTrials is the harness's front door: trialCount seeds,
// each generating a random query × stream × disorder trial and running
// every engine configuration against the oracle. Failures are shrunk and
// reported with a paste-ready repro.
func TestDifferentialTrials(t *testing.T) {
	n := trialCount
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			if fail := Run(Plain, Generate(seed)); fail != nil {
				t.Fatalf("%s", Shrink(fail).Report())
			}
		})
	}
}

// TestGeneratorCoverage asserts the trial distribution actually exercises
// the interesting regions: negation, disorder, partitionable queries (the
// kernel keys only those), timestamp ties, and non-empty truth; and the
// edges, K beyond the stream's span (nothing purges before Flush) and every
// event its own key.
// Without this, a generator regression could silently hollow out the
// differential test.
func TestGeneratorCoverage(t *testing.T) {
	var negated, partitionable, disordered, ties, nonEmptyTruth, beyondSpan, ownKeys int
	n := trialCount
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		c := Generate(seed)
		p, err := plan.ParseAndCompile(c.Query, Schema())
		if err != nil {
			t.Fatalf("seed %d: generated invalid query %q: %v", seed, c.Query, err)
		}
		if p.HasNegation() {
			negated++
		}
		if p.PartitionableBy(PartitionAttr) {
			partitionable++
		}
		if gen.OOORatio(c.Arrival) > 0 {
			disordered++
		}
		if gen.MaxDelay(c.Arrival) > c.K {
			t.Fatalf("seed %d: K=%d below realized disorder %d", seed, c.K, gen.MaxDelay(c.Arrival))
		}
		// The edges as Generate draws them: K one past the last timestamp
		// (streams start at 0 or later, so past the span), and each event's
		// id its Seq.
		hi, own := c.Arrival[0].TS, true
		for _, e := range c.Arrival {
			hi = max(hi, e.TS)
			id, _ := e.Attr(PartitionAttr)
			own = own && id.Equal(event.Int(int64(e.Seq)))
		}
		if c.K == hi+1 {
			beyondSpan++
		}
		if own {
			ownKeys++
		}
		seen := map[event.Time]bool{}
		for _, e := range c.Arrival {
			if seen[e.TS] {
				ties++
				break
			}
			seen[e.TS] = true
		}
		sorted := make([]event.Event, len(c.Arrival))
		copy(sorted, c.Arrival)
		event.SortByTime(sorted)
		if len(oracle.Matches(p, sorted)) > 0 {
			nonEmptyTruth++
		}
	}
	// Each class must be a solid fraction of the run, not a fluke.
	min := n / 10
	for name, got := range map[string]int{
		"negated":       negated,
		"partitionable": partitionable,
		"disordered":    disordered,
		"ts-ties":       ties,
		"nonempty":      nonEmptyTruth,
	} {
		if got < min {
			t.Errorf("only %d/%d trials are %s; generator drifted", got, n, name)
		}
	}
	t.Logf("%d of %d trials put K past the stream, %d give every event its own key", beyondSpan, n, ownKeys)
	for name, got := range map[string]int{"K beyond the span": beyondSpan, "one key per event": ownKeys} {
		if got == 0 || got < n/50 { // one in 16 is drawn; one in 500 happens by chance
			t.Errorf("only %d/%d trials have %s; generator drifted", got, n, name)
		}
	}
}

// TestMinimizeFindsOneMinimal checks the list minimizer against a known
// predicate: "contains the poison event" must shrink to exactly that event.
func TestMinimizeFindsOneMinimal(t *testing.T) {
	var events []event.Event
	for i := 0; i < 37; i++ {
		events = append(events, Ev("A", event.Time(i), event.Seq(i+1), int64(i%3), 0))
	}
	poison := Ev("B", 100, 99, 7, 7)
	events = append(events[:20], append([]event.Event{poison}, events[20:]...)...)
	got := minimize(events, func(sub []event.Event) bool {
		for _, e := range sub {
			if e.Seq == 99 {
				return true
			}
		}
		return false
	})
	if len(got) != 1 || got[0].Seq != 99 {
		t.Fatalf("minimize kept %d events, want just the poison one: %v", len(got), got)
	}
}

// TestMinimizePairMinimal checks the minimizer on a conjunctive predicate
// (two events must both survive), the shape real divergences have.
func TestMinimizePairMinimal(t *testing.T) {
	var events []event.Event
	for i := 0; i < 24; i++ {
		events = append(events, Ev("A", event.Time(i), event.Seq(i+1), 0, 0))
	}
	has := func(sub []event.Event, seq event.Seq) bool {
		for _, e := range sub {
			if e.Seq == seq {
				return true
			}
		}
		return false
	}
	got := minimize(events, func(sub []event.Event) bool {
		return has(sub, 5) && has(sub, 19)
	})
	if len(got) != 2 {
		t.Fatalf("minimize kept %d events, want 2: %v", len(got), got)
	}
}

// TestShrinkPreservesFailure manufactures a failing case by breaking the
// bound (K below the realized disorder drops events from the native
// engine) and checks Shrink returns a smaller case that still fails.
func TestShrinkPreservesFailure(t *testing.T) {
	c := findBoundViolation(t)
	fail := Run(Plain, c)
	if fail == nil {
		t.Skip("no under-K failure manufactured; generator changed")
	}
	shrunk := Shrink(fail)
	if len(shrunk.Case.Arrival) > len(fail.Case.Arrival) {
		t.Fatalf("shrink grew the case: %d -> %d", len(fail.Case.Arrival), len(shrunk.Case.Arrival))
	}
	if rerun := Run(Plain, shrunk.Case); rerun == nil {
		t.Fatalf("shrunk case no longer fails:\n%s", shrunk.Report())
	}
	if len(shrunk.Case.Arrival) >= len(fail.Case.Arrival) && len(fail.Case.Arrival) > 4 {
		t.Fatalf("shrink made no progress on a %d-event case", len(fail.Case.Arrival))
	}
}

// Three lists a mode must refuse and one that panics, registered before any
// test runs.
func init() {
	cfg := strategy(oostream.StrategyNative, 0)
	a, c := composition{name: "a", cfg: cfg}, composition{name: "c", cfg: cfg}
	modes["misspelt-want"] = func(*trial) []composition {
		return []composition{a, {name: "b", cfg: cfg, want: "A", how: exact}}
	}
	modes["later-want"] = func(*trial) []composition { return []composition{a, {name: "b", cfg: cfg, want: "c"}, c} }
	modes["named-twice"] = func(*trial) []composition { return []composition{a, a} }
	// A composition whose input panics on every non-empty arrival.
	modes["panicky"] = func(*trial) []composition {
		return []composition{a, {name: "boom", cfg: cfg, input: func(t *trial) ([]event.Event, event.Time, error) {
			panic(fmt.Sprintf("boom at %d events", len(t.c.Arrival)))
		}}}
	}
}

// TestPanicIsAFailure: a trial that panics fails with check "panic", naming
// the composition and the value, and shrinks like any failure.
func TestPanicIsAFailure(t *testing.T) {
	c := Generate(3)
	f := Run("panicky", c)
	if f == nil || f.Check != "panic" || f.Diff != fmt.Sprintf("boom: boom at %d events", len(c.Arrival)) {
		t.Fatalf("panicking trial: %v", f)
	}
	shrunk := Shrink(f)
	if shrunk.Check != "panic" || len(shrunk.Case.Arrival) != 1 || !strings.Contains(shrunk.Report(), "check=panic") {
		t.Fatalf("shrunk to %d events:\n%s", len(shrunk.Case.Arrival), shrunk.Report())
	}
}

// TestWantsNameEarlierCompositions: a want that names no composition listed
// before it, or a name given twice, fails every trial instead of dropping a
// check; so does a mode Run does not know.
func TestWantsNameEarlierCompositions(t *testing.T) {
	c := Generate(1)
	for mode, want := range map[Mode]string{
		"misspelt-want": `wants "A"`, "later-want": `wants "c"`, "named-twice": "named twice", "nope": `no mode "nope"`,
	} {
		if f := Run(mode, c); f == nil || !strings.Contains(f.Diff, want) {
			t.Errorf("mode %s: got %v, want a failure saying %s", mode, f, want)
		}
	}
}

// findBoundViolation searches seeds for a disordered trial with matches and
// returns it with K forced below the real disorder — a guaranteed-unsound
// configuration the harness must catch and shrink.
func findBoundViolation(t *testing.T) Case {
	t.Helper()
	for seed := int64(1); seed < 400; seed++ {
		c := Generate(seed)
		d := gen.MaxDelay(c.Arrival)
		if d < 3 {
			continue
		}
		c.K = d - 2
		if Run(Plain, c) != nil {
			return c
		}
	}
	t.Skip("no seed produced an under-K divergence")
	return Case{}
}
