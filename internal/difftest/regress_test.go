package difftest

import (
	"testing"

	"oostream/internal/event"
)

// Regression fixtures: shrunk repros the differential harness found and
// minimized on real soak runs. Each one made a strategy diverge from the
// oracle before its bug was fixed; they are pinned here so the divergence
// can never quietly return. Add new entries by pasting a Failure's
// ReproSource() output and naming the scenario.
//
// All three cases below were found as minimized repros of the in-order
// engine's equal-timestamp/RIP bug (fixed in internal/inorder, whose
// TestRIPRegressions now pins them against that reference kernel): the
// classic RIP walk checked candidates only against the *last* event's
// timestamp, so a candidate equal to its immediate successor — or, for
// repeated-type patterns, the successor event itself, reachable through the
// RIP it recorded a moment earlier — could chain into a match, violating the
// strict-timestamp sequencing semantics (DESIGN.md §3) the oracle
// implements. Here they keep the same ties in front of every strategy.
var regressions = []struct {
	name string
	c    Case
}{
	{
		// SEQ(A, D, D, A) over three events: the old walk bound the single
		// arrival-adjacent D at both middle positions via its self-recorded
		// RIP, fabricating a match from fewer events than positions.
		name: "same-event-reuse-repeated-type",
		c: Case{
			Query: "PATTERN SEQ(A x0, D x1, D x2, A x3) WHERE x0.id = x1.id AND x0.id = x2.id AND x0.id = x3.id WITHIN 62",
			K:     2,
			Arrival: []event.Event{
				Ev("A", 73, 36, 1, 6),
				Ev("D", 75, 37, 1, 7),
				Ev("A", 78, 38, 1, 4),
			},
		},
	},
	{
		// D@33 and B@33 tie on timestamp; strict sequencing forbids the
		// pair from chaining as adjacent components, but the old walk let
		// the tie through (it only compared against the final B@71).
		// Negation and a disordered arrival (Seq 17 before 16) ride along.
		name: "equal-ts-tie-with-negation",
		c: Case{
			Query: "PATTERN SEQ(B x0, !(D n0), D x1, B x2, B x3) WHERE x3.id != x1.id WITHIN 75",
			K:     16,
			Arrival: []event.Event{
				Ev("D", 33, 17, 0, 5),
				Ev("B", 33, 16, 2, 7),
				Ev("B", 68, 31, 2, 2),
				Ev("B", 71, 32, 2, 1),
			},
		},
	},
	{
		// Leading negation plus a partial (non-partitionable) id link; the
		// old walk reused B@19 across both B positions. The arrival order
		// is disordered (C before D) to exercise the full strategy matrix.
		name: "leading-negation-partial-link",
		c: Case{
			Query: "PATTERN SEQ(!(D n0), B x0, B x1, D x2, C x3) WHERE x2.id = x0.id AND x0.v != x3.v AND x1.v != 6 WITHIN 10",
			K:     20,
			Arrival: []event.Event{
				Ev("B", 19, 12, 0, 0),
				Ev("C", 25, 18, 1, 6),
				Ev("D", 23, 15, 0, 7),
			},
		},
	},
}

// TestRegressions replays every pinned repro through the full differential
// check set; any divergence fails with the same shrunk report a fresh find
// would produce.
func TestRegressions(t *testing.T) {
	for _, r := range regressions {
		r := r
		t.Run(r.name, func(t *testing.T) {
			if fail := Run(Plain, r.c); fail != nil {
				t.Fatalf("regression resurfaced:\n%s", fail.Report())
			}
		})
	}
}
