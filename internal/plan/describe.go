package plan

import (
	"fmt"
	"strings"
)

// Describe renders a human-readable explanation of the compiled plan: the
// sequence steps with their local predicates, the cross predicates with
// the slots they bind, the negation gaps, and the projection. Used by
// `esprun -explain` and handy when debugging predicate distribution.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for: %s\n", p.Source)
	fmt.Fprintf(&b, "window: %dms\n", p.Window)
	if p.ConstFalse {
		b.WriteString("constant-false WHERE clause: the query matches nothing\n")
		return b.String()
	}
	b.WriteString("sequence:\n")
	for i, step := range p.Positives {
		fmt.Fprintf(&b, "  [%d] %s AS %s", i, step.Type, step.Var)
		if len(step.Local) > 0 {
			b.WriteString("  local: ")
			for j, c := range step.Local {
				if j > 0 {
					b.WriteString(" AND ")
				}
				b.WriteString(c.String())
			}
		}
		b.WriteByte('\n')
	}
	if len(p.Cross) > 0 {
		b.WriteString("cross predicates (fire when all referenced slots bind):\n")
		for _, cp := range p.Cross {
			fmt.Fprintf(&b, "  slots %s: %s\n", maskSlots(cp.Mask), cp.Pred)
		}
	}
	for _, neg := range p.Negatives {
		fmt.Fprintf(&b, "negation !%s AS %s in gap after position %d", neg.Type, neg.Var, neg.GapAfter)
		switch neg.GapAfter {
		case 0:
			b.WriteString(" (leading: one window before the first element)")
		case len(p.Positives):
			b.WriteString(" (trailing: until one window after the first element)")
		}
		b.WriteByte('\n')
		for _, c := range neg.Local {
			fmt.Fprintf(&b, "  local: %s\n", c)
		}
		for _, c := range neg.Cross {
			fmt.Fprintf(&b, "  vs binding: %s\n", c)
		}
	}
	if len(p.Return) > 0 {
		b.WriteString("return:\n")
		for _, col := range p.Return {
			fmt.Fprintf(&b, "  %s := %s\n", col.Name, col.Expr)
		}
	}
	if a := p.Agg; a != nil {
		arg := "*"
		if a.ArgSlot >= 0 {
			arg = fmt.Sprintf("[%d].%s", a.ArgSlot, a.ArgAttr)
		}
		fmt.Fprintf(&b, "aggregate: %s(%s) over matches, windows (end−%d, end]", a.Func, arg, p.Window)
		if a.Slide == p.Window {
			b.WriteString(" tumbling\n")
		} else {
			fmt.Fprintf(&b, " sliding every %d\n", a.Slide)
		}
		if a.GroupSlot >= 0 {
			fmt.Fprintf(&b, "  group by: [%d].%s (one aggregation run per key)\n", a.GroupSlot, a.GroupAttr)
		}
		if a.Having != nil {
			fmt.Fprintf(&b, "  having: %s\n", a.Having)
		}
	}
	if len(p.EqLinks) > 0 {
		attrs := map[string]bool{}
		for _, l := range p.EqLinks {
			attrs[l.Attr] = true
		}
		var parts []string
		for a := range attrs {
			if p.PartitionableBy(a) {
				parts = append(parts, a)
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, "partitionable by: %s\n", strings.Join(parts, ", "))
		}
	}
	return b.String()
}

func maskSlots(mask uint64) string {
	var parts []string
	for i := 0; i < 64; i++ {
		if mask&(1<<uint(i)) != 0 {
			parts = append(parts, fmt.Sprintf("%d", i))
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}
