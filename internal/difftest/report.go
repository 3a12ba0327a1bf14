package difftest

import (
	"fmt"
	"strings"
)

// Report renders a failure for humans: the verdict, the stream, and a
// ready-to-paste Go repro. Everything needed to reproduce is in the text;
// nothing depends on process state.
func (f *Failure) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DIVERGENCE seed=%d check=%s truth=%d\n", f.Case.Seed, f.Check, f.Truth)
	fmt.Fprintf(&b, "query: %s\n", f.Case.Query)
	fmt.Fprintf(&b, "K=%d arrival (%d events):\n", f.Case.K, len(f.Case.Arrival))
	for _, e := range f.Case.Arrival {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	fmt.Fprintf(&b, "diff (oracle vs engine):\n%s\n", indent(f.Diff))
	fmt.Fprintf(&b, "repro:\n%s", indent(f.ReproSource()))
	return b.String()
}

// ReproSource renders the failing case as a Go composite literal using the
// difftest.Ev helper, directly usable as a regress_test.go fixture.
func (f *Failure) ReproSource() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// seed %d, check %q\n", f.Case.Seed, f.Check)
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
		if isNaN(v) {
			lit = "event.Float(math.NaN())"
		} else if x, ok := v.AsFloat(); ok {
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
