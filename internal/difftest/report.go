package difftest

import (
	"fmt"
	"slices"
	"strings"

	"oostream/internal/event"
)

// Report renders a failure for humans: the verdict, the stream, and a
// ready-to-paste Go repro. Everything needed to reproduce is in the text;
// nothing depends on process state.
func (f *Failure) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DIVERGENCE mode=%s seed=%d check=%s truth=%d\n", f.Mode, f.Case.Seed, f.Check, f.Truth)
	fmt.Fprintf(&b, "query: %s\n", f.Case.Query)
	fmt.Fprintf(&b, "K=%d arrival (%d events):\n", f.Case.K, len(f.Case.Arrival))
	for _, e := range f.Case.Arrival {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	fmt.Fprintf(&b, "diff (want vs got):\n%s\n", indent(f.Diff))
	fmt.Fprintf(&b, "repro:\n%s", indent(f.ReproSource()))
	return b.String()
}

// ReproSource renders the failing case as a Go composite literal using the
// difftest.Ev helper, directly usable as a regress_test.go fixture under
// difftest.Run(difftest.Mode(<mode>), c).
func (f *Failure) ReproSource() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// mode %q, seed %d, check %q\n", f.Mode, f.Case.Seed, f.Check)
	b.WriteString("difftest.Case{\n")
	fmt.Fprintf(&b, "\tQuery: %q,\n", f.Case.Query)
	fmt.Fprintf(&b, "\tK:     %d,\n", f.Case.K)
	b.WriteString("\tArrival: []event.Event{\n")
	for _, e := range f.Case.Arrival {
		id := int64(0)
		if x, ok := e.Attr("id"); ok {
			id, _ = x.AsInt()
		}
		v, _ := e.Attr("v")
		if i, ok := v.AsInt(); ok {
			fmt.Fprintf(&b, "\t\tdifftest.Ev(%q, %d, %d, %d, %d),\n", e.Type, e.TS, e.Seq, id, i)
			continue
		}
		// Off-schema v (generate.go's hostile streams): missing, float or NaN.
		lit := "event.Value{}"
		if x, ok := v.AsFloat(); x != x {
			lit = "event.Float(math.NaN())"
		} else if ok {
			lit = fmt.Sprintf("event.Float(%v)", x)
		}
		fmt.Fprintf(&b, "\t\tdifftest.EvWith(%q, %d, %d, %d, %s),\n", e.Type, e.TS, e.Seq, id, lit)
	}
	b.WriteString("\t},\n}")
	return b.String()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n")
}

// maxShrinkRuns bounds the number of Run calls one Shrink may spend.
// Streams are ≤ ~50 events, so ddmin converges far below this; the bound
// is a backstop against pathological oscillation.
const maxShrinkRuns = 4000

// Shrink minimizes a failing case's arrival list while preserving failure
// under its mode (of any check, not necessarily the original one — a
// smaller stream often shifts which comparison trips first, and any
// divergence is a bug). The arrival order of surviving events is preserved, as are their Seq
// numbers, so the disorder pattern that provoked the failure survives
// minimization; K is left untouched (removing events can only shrink
// realized delays, so the bound keeps holding), and so is everything a
// mode derives from the seed alone (a Multi trial's registry). Returns the
// smallest failure found.
func Shrink(f *Failure) *Failure {
	best, runs := f, 0
	minimize(best.Case.Arrival, func(sub []event.Event) bool {
		if runs >= maxShrinkRuns {
			return false
		}
		runs++
		c := best.Case
		c.Arrival = sub
		if fail := Run(f.Mode, c); fail != nil {
			best = fail
			return true
		}
		return false
	})
	return best
}

// minimize is a ddmin-style list minimizer: it removes contiguous chunks
// of halving size while pred keeps holding, then single elements, until a
// fixpoint. pred must hold for the input list; the returned list is
// 1-minimal with respect to single-element removal (bounded by the
// caller's budget via pred returning false).
func minimize(list []event.Event, pred func([]event.Event) bool) []event.Event {
	cur := list
	for chunk := max(len(cur)/2, 1); chunk >= 1; {
		removed := false
		for start := 0; start < len(cur); {
			end := min(start+chunk, len(cur))
			candidate := slices.Concat(cur[:start], cur[end:])
			if len(candidate) > 0 && pred(candidate) {
				cur = candidate
				removed = true
				// keep start: the next chunk slid into this position
			} else {
				start = end
			}
		}
		if !removed {
			if chunk == 1 {
				break
			}
			chunk /= 2
		}
	}
	return cur
}
