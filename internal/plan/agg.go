package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"oostream/internal/event"
	"oostream/internal/fiba"
	"oostream/internal/predicate"
	"oostream/internal/query"
)

// WindowType is the synthetic event type of the pseudo-event HAVING
// predicates evaluate against, and of the placeholder event carried by
// aggregate matches (Match.Events holds one such event stamped with the
// window end so Last()/Span()/restamping work unchanged).
const WindowType = "$window"

// AggSpec is the compiled AGGREGATE clause: which function, over which
// attribute of which positive slot, on what window-end grid, grouped and
// filtered how. Like the rest of the plan it is immutable and safe for
// concurrent use.
type AggSpec struct {
	// Func is the aggregation function.
	Func query.AggFunc
	// ArgSlot/ArgAttr locate the aggregated attribute on the positive
	// binding; ArgSlot is -1 for COUNT(*).
	ArgSlot int
	ArgAttr string
	// Slide is the window-end grid pitch; window ends are the multiples of
	// Slide. Defaults to the plan window (tumbling) when the SLIDE clause
	// was absent.
	Slide event.Time
	// GroupSlot/GroupAttr locate the GROUP BY key on the positive binding;
	// GroupSlot is -1 without GROUP BY.
	GroupSlot int
	GroupAttr string
	// Having is the compiled window filter (the pseudo-variable w bound to
	// slot 0), or nil.
	Having *predicate.Compiled
}

// compileAggregate lowers the AGGREGATE clause onto the plan.
func (p *Plan) compileAggregate(a *query.Analyzed) error {
	agg := a.Query.Agg
	spec := &AggSpec{
		Func:      agg.Func,
		ArgSlot:   -1,
		GroupSlot: -1,
		Slide:     agg.Slide,
	}
	if spec.Slide == 0 {
		spec.Slide = p.Window
	}
	if agg.Arg != nil {
		spec.ArgSlot = a.VarPosition[agg.Arg.Var]
		spec.ArgAttr = event.Intern(agg.Arg.Attr)
	}
	if agg.GroupBy != nil {
		spec.GroupSlot = a.VarPosition[agg.GroupBy.Var]
		spec.GroupAttr = event.Intern(agg.GroupBy.Attr)
	}
	if agg.Having != nil {
		c, err := predicate.Compile(agg.Having, func(v string) (int, bool) {
			return 0, v == query.HavingVar
		})
		if err != nil {
			return err
		}
		spec.Having = c
	}
	p.Agg = spec
	return nil
}

// HasTrailingNegation reports whether any negation is anchored after the
// last positive component. Such matches are withheld until the trailing gap
// seals, which widens the lateness bound aggregation must absorb by one
// window length.
func (p *Plan) HasTrailingNegation() bool {
	for _, n := range p.Negatives {
		if n.GapAfter == len(p.Positives) {
			return true
		}
	}
	return false
}

// AlignUp returns the smallest multiple of slide that is >= ts — the first
// window end whose window can contain an element at ts — or the top of the
// time range when that multiple lies beyond it.
func AlignUp(ts, slide event.Time) event.Time {
	q := ts / slide
	if q*slide < ts {
		if q >= math.MaxInt64/slide {
			return math.MaxInt64
		}
		q++
	}
	return q * slide
}

// ElementOf maps one inner match to its aggregation element: the
// element timestamp (the match's last event — the moment the match
// completes), its partial aggregate, and its GROUP BY key. ok is false when
// the argument or group attribute is missing, the argument is non-numeric,
// or the group key is NaN (KeyOf: it equals no group, itself included);
// such matches contribute nothing, and the error is reported
// through errSink (engines route it to the PredErrors counter).
func (s *AggSpec) ElementOf(m Match, errSink func(error)) (ts event.Time, p fiba.Partial, group event.Value, ok bool) {
	ts = m.Last().TS
	if s.ArgSlot < 0 {
		p = fiba.CountOnly()
	} else {
		e := m.Events[s.ArgSlot]
		v, found := e.Attr(s.ArgAttr)
		if !found {
			if s.ArgAttr == predicate.TSAttr {
				v = event.Int(e.TS)
			} else {
				sink(errSink, fmt.Errorf("%s: event %s has no attribute %q", s.Func, e.Type, s.ArgAttr))
				return 0, fiba.Partial{}, event.Value{}, false
			}
		}
		if !v.IsNumeric() {
			sink(errSink, fmt.Errorf("%s: attribute %q is %s, not numeric", s.Func, s.ArgAttr, v.Kind()))
			return 0, fiba.Partial{}, event.Value{}, false
		}
		p = fiba.Of(v)
	}
	if s.GroupSlot >= 0 {
		g, found := KeyOf(m.Events[s.GroupSlot], s.GroupAttr)
		if !found {
			sink(errSink, fmt.Errorf("GROUP BY %s: event %s has no attribute %q, or it is NaN", s.GroupAttr, m.Events[s.GroupSlot].Type, s.GroupAttr))
			return 0, fiba.Partial{}, event.Value{}, false
		}
		group = g
	}
	return ts, p, group, true
}

func sink(errSink func(error), err error) {
	if errSink != nil {
		errSink(err)
	}
}

// Result turns a merged partial into the aggregate's output value. ok is
// false for the empty window (Count == 0): empty windows emit nothing.
// SUM stays exact-integer while every contribution was an int.
func (s *AggSpec) Result(p fiba.Partial) (v event.Value, count int64, ok bool) {
	if p.Count == 0 {
		return event.Value{}, 0, false
	}
	switch s.Func {
	case query.AggCount:
		return event.Int(p.Count), p.Count, true
	case query.AggSum:
		if p.Floaty {
			return event.Float(p.SumF), p.Count, true
		}
		return event.Int(p.SumI), p.Count, true
	case query.AggAvg:
		return event.Float(p.SumF / float64(p.Count)), p.Count, true
	case query.AggMin:
		return p.Min(), p.Count, true
	case query.AggMax:
		return p.Max(), p.Count, true
	default:
		return event.Value{}, 0, false
	}
}

// The window pseudo-event's attribute names, from the name table like the
// HAVING operands that read them.
var (
	havingCount = event.Intern(query.HavingCount)
	havingEnd   = event.Intern(query.HavingEnd)
	havingKey   = event.Intern(query.HavingKey)
	havingStart = event.Intern(query.HavingStart)
	havingValue = event.Intern(query.HavingValue)
)

// EvalHaving applies the HAVING filter to a candidate window value. Without
// a HAVING clause every window passes. Evaluation errors count as
// non-passing and are reported through errSink.
func (s *AggSpec) EvalHaving(v *AggValue, errSink func(error)) bool {
	if s.Having == nil {
		return true
	}
	// In name order, as an event.AttrList is kept.
	attrs := make(event.AttrList, 0, 5)
	attrs = append(attrs,
		event.Attr{Name: havingCount, Value: event.Int(v.Count)},
		event.Attr{Name: havingEnd, Value: event.Int(int64(v.WindowEnd))})
	if v.HasGroup {
		attrs = append(attrs, event.Attr{Name: havingKey, Value: v.Group})
	}
	attrs = append(attrs,
		event.Attr{Name: havingStart, Value: event.Int(int64(v.WindowStart))},
		event.Attr{Name: havingValue, Value: v.Value})
	w := event.Event{Type: WindowType, TS: v.WindowEnd, Attrs: attrs}
	ok, err := s.Having.EvalBool([]event.Event{w})
	if err != nil {
		sink(errSink, fmt.Errorf("HAVING: %w", err))
		return false
	}
	return ok
}

// AggValue is the payload of an aggregate match: one window's value. The
// window is the half-open interval (WindowStart, WindowEnd].
type AggValue struct {
	// Func is the aggregation function name (COUNT/SUM/AVG/MIN/MAX).
	Func string
	// WindowStart is the exclusive window start (WindowEnd − WITHIN).
	WindowStart event.Time
	// WindowEnd is the inclusive window end, a multiple of SLIDE.
	WindowEnd event.Time
	// Group is the GROUP BY key; valid only when HasGroup.
	Group    event.Value
	HasGroup bool
	// Value is the aggregate result.
	Value event.Value
	// Count is the number of contributing elements (matches).
	Count int64
}

// key is the aggregate counterpart of Match.Key: window identity plus the
// emitted value, so a speculative retract+insert revision of the same
// window cancels in KeySet exactly like a pattern retraction does.
func (v *AggValue) key() string {
	var b strings.Builder
	b.WriteString("agg|")
	b.WriteString(v.Func)
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(int64(v.WindowEnd), 10))
	b.WriteByte('|')
	if v.HasGroup {
		b.WriteString(v.Group.MapKey().String())
	}
	b.WriteByte('|')
	b.WriteString(v.Value.String())
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(v.Count, 10))
	return b.String()
}

// Same reports whether o would emit as the same match (equal keys): a
// revision that changes nothing needs no retract+insert pair.
func (v *AggValue) Same(o *AggValue) bool { return v.key() == o.key() }

func (v *AggValue) String() string {
	var buf [128]byte
	return string(v.appendText(buf[:0]))
}

// appendText appends FUNC(start,end] [key=group] = value (n=count).
func (v *AggValue) appendText(dst []byte) []byte {
	dst = append(dst, v.Func...)
	dst = append(dst, '(')
	dst = strconv.AppendInt(dst, v.WindowStart, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, v.WindowEnd, 10)
	dst = append(dst, ']')
	if v.HasGroup {
		dst = append(dst, " key="...)
		dst = event.AppendValue(dst, v.Group)
	}
	dst = append(dst, " = "...)
	dst = event.AppendValue(dst, v.Value)
	dst = append(dst, " (n="...)
	dst = strconv.AppendInt(dst, v.Count, 10)
	return append(dst, ')')
}

// WindowEvent builds the placeholder event aggregate matches carry in
// Events: type WindowType, stamped with the window end.
func WindowEvent(end event.Time) event.Event {
	return event.Event{Type: WindowType, TS: end}
}
