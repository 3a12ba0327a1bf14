package core

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"

	"oostream/internal/event"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

// TestLevelSkipEdges drives a V-shape whose a level is skipped when its
// column's bound shows no candidate can pass b.p <= a.p + 1, through the
// values that could make a bound lie: NaN prices, an int run against a
// float partner, a run in which one event lacks the attribute, equality
// under <= and >=, and the int64 ends (a.p + 1 wraps at MaxInt64). Per
// step the matches so far are the oracle's, PredErrors moves as evaluating
// every visit would move it, and visits pins where the walk skipped.
//
// A walk triggered at c binds b, then a from its pass list (c.q >= a.q is
// hoisted); one triggered at a late b binds a, then c under c.q >= a.q;
// one triggered at a late a binds b, then c from its pass list. The b level
// checks nothing under a c trigger, so its walk stops at the earliest
// passing a (plan.Level.Floor).
//
// The sides compared are the stacks' columns, loaded once per push. The last
// scenario moves them every way a stack moves: late inserts shift them, a
// heartbeat purges the one group empty onto the free list and the next
// arrival takes it back, and a checkpoint restores them by inserting. After
// every step each column entry equals its instance's load
// (ais.KeyedStacks.CheckColumns).
func TestLevelSkipEdges(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WHERE b.p <= a.p + 1 AND c.q >= a.q WITHIN 1000")
	nan := event.Float(math.NaN())
	a := func(ts event.Time, p event.Value, q int64) step {
		attrs := event.Attrs{"q": event.Int(q)}
		if p.Valid() {
			attrs["p"] = p
		}
		return step{"A", ts, attrs, 0, 0, 0}
	}
	b := func(ts event.Time, p event.Value) step { return step{"B", ts, event.Attrs{"p": p}, 0, 0, 0} }
	c := func(ts event.Time, q int64, matches, errs, visits int) step {
		return step{"C", ts, event.Attrs{"q": event.Int(q)}, matches, errs, visits}
	}
	late := func(s step, matches, errs, visits int) step {
		s.matches, s.errs, s.visits = matches, errs, visits
		return s
	}
	advance := func(ts event.Time) step { return step{typ: "advance", ts: ts} }
	restart := step{typ: "restore"}
	scenarios := map[string][]step{
		"NaN prices": {
			a(10, nan, 0), a(20, nan, 0), b(30, event.Int(1)),
			c(40, 0, 0, 0, 1),                     // B30's run is all NaN: passes nothing, a not entered
			late(a(25, event.Int(5), 0), 1, 0, 2), // B30, C40
			b(50, nan),                            // in order: no trigger
			c(60, 0, 1, 0, 5),                     // B50 is NaN: skipped; B30 visits A25 (match), A20, A10
		},
		"int run, float partner": {
			a(10, event.Int(3), 0), a(20, event.Int(4), 0), b(30, event.Float(5.5)),
			c(40, 0, 0, 0, 1), // 5.5 <= 5 fails for the best a: skipped
			b(50, event.Float(5)),
			c(60, 0, 1, 0, 4), // B50 visits A20 (5.0 <= 5, match) and A10; B30 skipped
		},
		"one event lacks p": {
			a(10, event.Int(1), 0), b(30, event.Int(50)), a(35, event.Value{}, 0), b(38, event.Int(50)),
			c(40, 0, 0, 1, 4), // B38's run holds A35: entered, A35 errs; B30's run is A10 only: skipped
			b(42, event.Int(1)),
			c(45, 0, 1, 2, 7), // B42 and B38 enter (A35 errs twice), B42 matches A10; B30 skipped
		},
		"equality under <= and >=": {
			a(10, event.Int(4), 7),
			c(40, 7, 0, 0, 0),                     // no b in reach: the trigger stops before the walk
			late(b(30, event.Int(5)), 1, 0, 2),    // 5 <= 4 + 1 at A10, then C40's 7 >= 7
			c(50, 6, 0, 0, 0),                     // 6 >= 7 fails for A10: empty pass list
			late(b(45, event.Int(6)), 0, 0, 0),    // 6 <= 4 + 1 fails: the a level is skipped
			late(a(20, event.Int(5), 6), 3, 0, 5), // b run's least is 5 <= 6; B45's 6 <= 6 holds too
		},
		"int64 ends": {
			a(10, event.Int(math.MaxInt64), 0), a(20, event.Int(math.MaxInt64-1), 0), b(30, event.Int(math.MaxInt64)),
			c(40, 0, 1, 0, 3), // A10's a.p + 1 wraps to MinInt64; A20's is MaxInt64 and matches
			a(50, event.Int(math.MinInt64), 0), b(60, event.Float(1<<63)),
			c(70, 0, 2, 0, 7), // float 2^63 <= MaxInt64 as float64: B60 enters and matches A20
			b(80, event.Float(1e19)),
			c(90, 0, 2, 0, 8), // 1e19 passes no a: B80 skipped
		},
		"columns shift, trim, reuse and restore": {
			a(10, event.Int(5), 3), a(30, event.Int(2), 1), b(40, event.Int(3)),
			late(a(20, event.Int(9), 2), 0, 0, 0),   // shifts A30's sides up; no c: no walk
			c(50, 2, 2, 0, 3),                       // A20 and A30 pass; B40 binds both
			restart,                                 // the columns come back by insertion
			late(b(35, event.Int(4)), 1, 0, 4),      // A30 fails 4 <= 3; A20 matches C50; A10's q skips C
			advance(5000),                           // everything purged: the group goes free
			late(a(4600, event.Int(7), 5), 0, 0, 0), // the group reused; below the clock, so late
			late(b(4700, event.Int(8)), 0, 0, 1),    // binds A4600; no c yet
			c(4800, 6, 1, 0, 2),                     // B4700 binds A4600
			late(b(4650, event.Int(9)), 0, 0, 0),    // 9 <= 8 fails for the best a: skipped
			restart,
			late(a(4620, event.Int(9), 1), 2, 0, 4), // B4650 and B4700 each reach C4800
		},
	}
	for name, steps := range scenarios {
		t.Run(name, func(t *testing.T) { runSteps(t, p, steps) })
	}
}

// TestPassListFloor pins plan.Level.Floor both ways: under c.q >= a.q
// alone the b level checks nothing, so a walk triggered at c stops its b's
// at the earliest a that passes, and one triggered at a late a stops them at
// the latest c that passes. The b's beyond would find nothing and evaluate
// nothing: matches and PredErrors stay, only visits fall.
func TestPassListFloor(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WHERE c.q >= a.q WITHIN 1000")
	a := func(ts event.Time, q int64) step { return step{"A", ts, event.Attrs{"q": event.Int(q)}, 0, 0, 0} }
	b := func(ts event.Time) step { return step{"B", ts, event.Attrs{}, 0, 0, 0} }
	c := func(ts event.Time, q int64, matches, visits int) step {
		return step{"C", ts, event.Attrs{"q": event.Int(q)}, matches, 0, visits}
	}
	runSteps(t, p, []step{
		b(5), a(10, 5), b(10), b(11), b(20), b(30),
		c(40, 1, 0, 0), // no a passes: no walk
		c(50, 6, 3, 6), // B30, B20 and B11 bind A10; B10 and B5 are not after it, not visited
		b(60),
		{"A", 25, event.Attrs{"q": event.Int(2)}, 1, 0, 2}, // B30 binds C50; B60 is above it, not visited
	})
}

// runSteps feeds a step table to an engine on p, checking after every step
// the matches so far against the oracle, the columns against their
// instances, and the step's matches, PredErrors and visits. A step of type
// "advance" is a heartbeat that must purge every instance, one of type
// "restore" replaces the engine by one restored from its checkpoint.
func runSteps(t *testing.T, p *plan.Plan, steps []step) {
	t.Helper()
	en := MustNew(p, Options{K: 1000, PurgeEvery: 1})
	var seen []event.Event
	var got []plan.Match
	for i, st := range steps {
		switch st.typ {
		case "advance":
			got = append(got, en.Advance(st.ts)...)
			if en.kstacks.Size() != 0 || en.kstacks.Groups() != 0 {
				t.Fatalf("advance to %d left %d instances in %d groups", st.ts, en.kstacks.Size(), en.kstacks.Groups())
			}
			continue
		case "restore":
			var buf bytes.Buffer
			if err := en.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			var err error
			if en, err = restore(p, &buf); err != nil {
				t.Fatal(err)
			}
			if err := en.kstacks.CheckColumns(); err != nil {
				t.Fatalf("after restore: %v", err)
			}
			continue
		}
		e := kev(st.typ, st.ts, event.Seq(i+1), st.attrs)
		seen = append(seen, e)
		errs, visits := en.Metrics().PredErrors, en.visited
		out := en.Process(e)
		got = append(got, out...)
		if err := en.kstacks.CheckColumns(); err != nil {
			t.Fatalf("%s@%d: %v", st.typ, st.ts, err)
		}
		sorted := slices.Clone(seen)
		slices.SortFunc(sorted, func(x, y event.Event) int { return cmp.Compare(x.TS, y.TS) })
		if ok, diff := plan.SameResults(oracle.Matches(p, sorted), got); !ok {
			t.Fatalf("%s@%d: matches differ from the oracle:\n%s", st.typ, st.ts, diff)
		}
		if len(out) != st.matches {
			t.Errorf("%s@%d: %d matches, want %d", st.typ, st.ts, len(out), st.matches)
		}
		if d := en.Metrics().PredErrors - errs; d != uint64(st.errs) {
			t.Errorf("%s@%d: %d predicate errors, want %d", st.typ, st.ts, d, st.errs)
		}
		if d := en.visited - visits; d != uint64(st.visits) {
			t.Errorf("%s@%d: %d walk visits, want %d", st.typ, st.ts, d, st.visits)
		}
	}
}

// step is one arrival of a step table and what its trigger, if any, does.
type step struct {
	typ                   string
	ts                    event.Time
	attrs                 event.Attrs
	matches, errs, visits int
}
