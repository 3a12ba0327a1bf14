package core

import (
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
// one triggered at a late a binds b, then c from its pass list.
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
	}
	for name, steps := range scenarios {
		t.Run(name, func(t *testing.T) {
			en := MustNew(p, Options{K: 1000, PurgeEvery: -1})
			var seen []event.Event
			var got []plan.Match
			for i, st := range steps {
				e := kev(st.typ, st.ts, event.Seq(i+1), st.attrs)
				seen = append(seen, e)
				errs, visits := en.Metrics().PredErrors, en.visited
				out := en.Process(e)
				got = append(got, out...)
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
		})
	}
}

// step is one arrival of a step table and what its trigger, if any, does.
type step struct {
	typ                   string
	ts                    event.Time
	attrs                 event.Attrs
	matches, errs, visits int
}
