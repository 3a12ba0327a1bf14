package difftest

import (
	"fmt"
	"testing"

	"oostream"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
)

// traceRun drives one provenance-enabled strategy over events with a
// collecting trace hook and returns the matches and the trace.
func traceRun(t *testing.T, query string, strategy oostream.Strategy, k event.Time, events []event.Event) ([]plan.Match, []obsv.TraceEvent) {
	t.Helper()
	q, err := oostream.Compile(query, Schema())
	if err != nil {
		t.Fatal(err)
	}
	var tr []obsv.TraceEvent
	hook := oostream.TraceFunc(func(te oostream.TraceEvent) { tr = append(tr, te) })
	en := oostream.MustNewEngine(q, oostream.Config{
		Strategy:   strategy,
		K:          k,
		Provenance: true,
		Trace:      hook,
	})
	ms := en.ProcessAll(events)
	purged := uint64(0)
	for _, te := range tr {
		if te.Op == obsv.OpPurge {
			purged += uint64(te.N)
		}
	}
	// OpPurge completeness: every reclaimed item is traced. The kslack
	// levee keeps the inner engine's hook unbound (its view is delayed by
	// K and would double-report admissions), so its purges are not traced.
	if strategy != oostream.StrategyKSlack && purged != en.Metrics().Purged {
		t.Errorf("%s: OpPurge traces account for %d items, Metrics().Purged = %d",
			strategy, purged, en.Metrics().Purged)
	}
	return ms, tr
}

// netEmits folds a trace into the emit-minus-retract multiset of match
// identities (OpEmit adds, OpRetract subtracts), dropping zero entries.
func netEmits(t *testing.T, strategy oostream.Strategy, tr []obsv.TraceEvent) map[string]int {
	t.Helper()
	net := map[string]int{}
	for _, te := range tr {
		switch te.Op {
		case obsv.OpEmit, obsv.OpRetract:
			if te.Match == "" {
				t.Fatalf("%s: %s trace event without a match identity under provenance", strategy, te.Op)
			}
			if te.Op == obsv.OpEmit {
				net[te.Match]++
			} else {
				net[te.Match]--
			}
		}
	}
	for k, v := range net {
		if v == 0 {
			delete(net, k)
		}
	}
	return net
}

// TestTraceOpsDifferential asserts trace-stream/output consistency per
// strategy and trace-stream equivalence across strategies on sorted
// input:
//
//   - every OpEmit / OpRetract trace event corresponds 1:1 to a returned
//     Insert / Retract match, identity for identity;
//   - OpPurge events account for exactly Metrics().Purged items;
//   - the emit-minus-retract identity multiset is the same for every
//     strategy (on sorted input all three compute the same results, so
//     their trace streams must agree once speculation's compensations
//     cancel).
func TestTraceOpsDifferential(t *testing.T) {
	strategies := []oostream.Strategy{
		oostream.StrategyNative,
		oostream.StrategyKSlack,
		oostream.StrategySpeculate,
	}
	for seed := int64(1); seed <= 40; seed++ {
		c := Generate(seed)
		sorted := make([]event.Event, len(c.Arrival))
		copy(sorted, c.Arrival)
		event.SortByTime(sorted)

		nets := make([]map[string]int, len(strategies))
		for si, strategy := range strategies {
			ms, tr := traceRun(t, c.Query, strategy, c.K, sorted)

			// Trace/output 1:1: the multiset of emitted identities in the
			// trace equals the multiset of returned Insert matches, and
			// likewise for retractions.
			wantEmit, wantRetract := map[string]int{}, map[string]int{}
			for _, m := range ms {
				if m.Kind == plan.Retract {
					wantRetract[m.Key()]++
				} else {
					wantEmit[m.Key()]++
				}
			}
			gotEmit, gotRetract := map[string]int{}, map[string]int{}
			for _, te := range tr {
				switch te.Op {
				case obsv.OpEmit:
					gotEmit[te.Match]++
				case obsv.OpRetract:
					gotRetract[te.Match]++
				}
			}
			if diff := diffMultiset(wantEmit, gotEmit); diff != "" {
				t.Fatalf("seed %d %s: OpEmit trace vs Insert output: %s", seed, strategy, diff)
			}
			if diff := diffMultiset(wantRetract, gotRetract); diff != "" {
				t.Fatalf("seed %d %s: OpRetract trace vs Retract output: %s", seed, strategy, diff)
			}
			nets[si] = netEmits(t, strategy, tr)
		}

		// Cross-strategy: net trace streams agree on sorted input.
		for si := 1; si < len(strategies); si++ {
			if diff := diffMultiset(nets[0], nets[si]); diff != "" {
				t.Fatalf("seed %d: net emit trace of %s diverges from %s: %s",
					seed, strategies[si], strategies[0], diff)
			}
		}
	}
}

// diffMultiset describes the first difference between two multisets, or
// returns "".
func diffMultiset(want, got map[string]int) string {
	for k, w := range want {
		if g := got[k]; g != w {
			return fmt.Sprintf("identity %q: want %d, got %d", k, w, g)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("identity %q: want 0, got %d", k, g)
		}
	}
	return ""
}
