package query

import (
	"fmt"

	"oostream/internal/event"
)

// Analyzed is the semantically checked form of a query, ready for planning.
type Analyzed struct {
	// Query is the underlying parse tree.
	Query *Query
	// Positives are the positive components in sequence order.
	Positives []Component
	// Negatives are the negated components with their gap placement.
	Negatives []Negative
	// VarPosition maps a variable name to its positive sequence position
	// (0-based); negative variables are absent.
	VarPosition map[string]int
	// NegVarIndex maps a negative variable name to its index in Negatives.
	NegVarIndex map[string]int
}

// Negative is a negated component anchored to a gap in the positive sequence.
type Negative struct {
	Component Component
	// GapAfter is the number of positive components that precede the
	// negation: 0 means before the first positive (leading negation),
	// len(Positives) means after the last (trailing negation).
	GapAfter int
}

// SemanticError reports a semantic (not syntactic) query problem.
type SemanticError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *SemanticError) Error() string {
	return fmt.Sprintf("semantic error at %s: %s", e.Pos, e.Msg)
}

func semanticErrorf(pos Pos, format string, args ...any) error {
	return &SemanticError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// maxWithin is the longest window a query may ask for, in milliseconds. The
// engines purge by clock − 2·WITHIN and bound gaps by ts ± WITHIN; above this
// limit that arithmetic wraps for timestamps in the usual range, and a
// wrapped purge horizon drops state that matches still need.
const maxWithin = event.Time(1) << 60

// Analyze checks a parsed query and returns its analyzed form. If schema is
// non-nil, event types and attribute references are checked against it and
// expressions are kind-checked; with a nil schema only structural checks run.
func Analyze(q *Query, schema *event.Schema) (*Analyzed, error) {
	if len(q.Components) == 0 {
		return nil, semanticErrorf(Pos{1, 1}, "pattern has no components")
	}
	a := &Analyzed{
		Query:       q,
		VarPosition: make(map[string]int),
		NegVarIndex: make(map[string]int),
	}
	seen := make(map[string]Pos)
	for _, c := range q.Components {
		if prev, dup := seen[c.Var]; dup {
			return nil, semanticErrorf(c.Pos, "variable %q already bound at %s", c.Var, prev)
		}
		seen[c.Var] = c.Pos
		if schema != nil {
			if _, ok := schema.Type(c.Type); !ok {
				return nil, semanticErrorf(c.Pos, "event type %q not declared in schema", c.Type)
			}
		}
		if c.Negated {
			a.NegVarIndex[c.Var] = len(a.Negatives)
			a.Negatives = append(a.Negatives, Negative{
				Component: c,
				GapAfter:  len(a.Positives),
			})
		} else {
			a.VarPosition[c.Var] = len(a.Positives)
			a.Positives = append(a.Positives, c)
		}
	}
	if len(a.Positives) == 0 {
		return nil, semanticErrorf(q.Components[0].Pos, "pattern needs at least one positive component")
	}
	if q.Within <= 0 {
		return nil, semanticErrorf(Pos{1, 1}, "WITHIN clause is required (unbounded patterns need unbounded state)")
	}
	if q.Within > maxWithin {
		return nil, semanticErrorf(Pos{1, 1}, "WITHIN %dms exceeds the limit of %dms (2^60)", q.Within, maxWithin)
	}

	varTypes := make(map[string]string, len(q.Components))
	for _, c := range q.Components {
		varTypes[c.Var] = c.Type
	}
	if q.Where != nil {
		kind, err := checkExpr(q.Where, varTypes, schema)
		if err != nil {
			return nil, err
		}
		if schema != nil && kind != event.KindBool {
			return nil, semanticErrorf(q.Where.Pos(), "WHERE clause must be boolean, got %s", kind)
		}
	}
	for _, item := range q.Return {
		if _, err := checkExpr(item.Expr, varTypes, schema); err != nil {
			return nil, err
		}
		for v := range Vars(item.Expr) {
			if _, isNeg := a.NegVarIndex[v]; isNeg {
				return nil, semanticErrorf(item.Expr.Pos(),
					"RETURN cannot reference negated variable %q (it does not occur in a match)", v)
			}
		}
	}
	if q.Agg != nil {
		if err := checkAggregate(q, a, varTypes, schema); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// windowType is the synthetic event type backing HAVING kind checks.
const windowType = "$window"

// checkAggregate validates the AGGREGATE clause: function arity, argument
// and GROUP BY references (positive components only, numeric argument under
// a schema), SLIDE bounds, and the HAVING expression over the reserved
// window pseudo-variable.
func checkAggregate(q *Query, a *Analyzed, varTypes map[string]string, schema *event.Schema) error {
	agg := q.Agg
	if len(q.Return) > 0 {
		return semanticErrorf(agg.At, "RETURN cannot be combined with AGGREGATE (aggregates emit window values, not event tuples)")
	}
	if _, bound := varTypes[HavingVar]; bound {
		return semanticErrorf(agg.At, "variable %q is reserved for HAVING window references", HavingVar)
	}
	argKind := event.KindInvalid
	switch agg.Func {
	case AggCount:
		if agg.Arg != nil {
			return semanticErrorf(agg.Arg.At, "COUNT counts matches; write COUNT(*)")
		}
	default:
		if agg.Arg == nil {
			return semanticErrorf(agg.At, "%s needs an attribute argument, e.g. %s(x.amount)", agg.Func, agg.Func)
		}
		if _, ok := a.VarPosition[agg.Arg.Var]; !ok {
			if _, neg := a.NegVarIndex[agg.Arg.Var]; neg {
				return semanticErrorf(agg.Arg.At, "cannot aggregate over negated variable %q (it does not occur in a match)", agg.Arg.Var)
			}
			return semanticErrorf(agg.Arg.At, "unknown variable %q", agg.Arg.Var)
		}
		if schema != nil {
			kind, err := checkExpr(agg.Arg, varTypes, schema)
			if err != nil {
				return err
			}
			if kind != event.KindInt && kind != event.KindFloat {
				return semanticErrorf(agg.Arg.At, "%s needs a numeric attribute, but %s is %s", agg.Func, agg.Arg, kind)
			}
			argKind = kind
		}
	}
	if agg.GroupBy != nil {
		if _, ok := a.VarPosition[agg.GroupBy.Var]; !ok {
			if _, neg := a.NegVarIndex[agg.GroupBy.Var]; neg {
				return semanticErrorf(agg.GroupBy.At, "cannot GROUP BY negated variable %q (it does not occur in a match)", agg.GroupBy.Var)
			}
			return semanticErrorf(agg.GroupBy.At, "unknown variable %q", agg.GroupBy.Var)
		}
		if schema != nil {
			if _, err := checkExpr(agg.GroupBy, varTypes, schema); err != nil {
				return err
			}
		}
	}
	if agg.Slide < 0 {
		return semanticErrorf(agg.At, "SLIDE must be positive, got %dms", agg.Slide)
	}
	if agg.Slide > q.Within {
		return semanticErrorf(agg.At, "SLIDE %dms exceeds WITHIN %dms (windows would skip events)", agg.Slide, q.Within)
	}
	if agg.Having != nil {
		if err := checkHaving(agg, argKind, varTypes, schema); err != nil {
			return err
		}
	}
	return nil
}

// checkHaving validates the HAVING expression. Reference checks (only
// w.value/count/start/end/key, key only under GROUP BY) always run; with a
// schema the expression is additionally kind-checked against the window's
// synthetic type and must be boolean.
func checkHaving(agg *AggClause, argKind event.Kind, varTypes map[string]string, schema *event.Schema) error {
	if err := checkHavingRefs(agg.Having, agg.GroupBy != nil); err != nil {
		return err
	}
	if schema == nil {
		return nil
	}
	var valueKind event.Kind
	switch agg.Func {
	case AggCount:
		valueKind = event.KindInt
	case AggAvg:
		valueKind = event.KindFloat
	default: // SUM/MIN/MAX take the argument's kind
		valueKind = argKind
	}
	fields := map[string]event.Kind{
		HavingValue: valueKind,
		HavingCount: event.KindInt,
		HavingStart: event.KindInt,
		HavingEnd:   event.KindInt,
	}
	if agg.GroupBy != nil {
		// GroupBy was reference-checked by the caller, so the lookup succeeds.
		kind, ok := schema.Field(varTypes[agg.GroupBy.Var], agg.GroupBy.Attr)
		if ok {
			fields[HavingKey] = kind
		}
	}
	win := event.NewSchema()
	win.Declare(windowType, fields)
	kind, err := checkExpr(agg.Having, map[string]string{HavingVar: windowType}, win)
	if err != nil {
		return err
	}
	if kind != event.KindBool {
		return semanticErrorf(agg.Having.Pos(), "HAVING must be boolean, got %s", kind)
	}
	return nil
}

func checkHavingRefs(e Expr, grouped bool) error {
	switch n := e.(type) {
	case *BinaryExpr:
		if err := checkHavingRefs(n.Left, grouped); err != nil {
			return err
		}
		return checkHavingRefs(n.Right, grouped)
	case *UnaryExpr:
		return checkHavingRefs(n.X, grouped)
	case *AttrRef:
		if n.Var != HavingVar {
			return semanticErrorf(n.At, "HAVING references windows through %q (w.value, w.count, w.start, w.end, w.key), not pattern variables", HavingVar)
		}
		switch n.Attr {
		case HavingValue, HavingCount, HavingStart, HavingEnd:
		case HavingKey:
			if !grouped {
				return semanticErrorf(n.At, "w.key requires a GROUP BY clause")
			}
		default:
			return semanticErrorf(n.At, "window has no attribute %q (want value, count, start, end, or key)", n.Attr)
		}
	}
	return nil
}

// checkExpr verifies variable references and, when a schema is provided,
// infers and checks value kinds. With a nil schema the returned kind is
// KindInvalid and only reference checks are performed.
func checkExpr(e Expr, varTypes map[string]string, schema *event.Schema) (event.Kind, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val.Kind(), nil
	case *AttrRef:
		typ, ok := varTypes[n.Var]
		if !ok {
			return event.KindInvalid, semanticErrorf(n.At, "unknown variable %q", n.Var)
		}
		if schema == nil {
			return event.KindInvalid, nil
		}
		kind, ok := schema.Field(typ, n.Attr)
		if !ok {
			return event.KindInvalid, semanticErrorf(n.At, "type %s has no attribute %q", typ, n.Attr)
		}
		return kind, nil
	case *UnaryExpr:
		kind, err := checkExpr(n.X, varTypes, schema)
		if err != nil {
			return event.KindInvalid, err
		}
		if schema == nil {
			return event.KindInvalid, nil
		}
		if n.Not {
			if kind != event.KindBool {
				return event.KindInvalid, semanticErrorf(n.At, "NOT needs a boolean operand, got %s", kind)
			}
			return event.KindBool, nil
		}
		if kind != event.KindInt && kind != event.KindFloat {
			return event.KindInvalid, semanticErrorf(n.At, "negation needs a numeric operand, got %s", kind)
		}
		return kind, nil
	case *BinaryExpr:
		lk, err := checkExpr(n.Left, varTypes, schema)
		if err != nil {
			return event.KindInvalid, err
		}
		rk, err := checkExpr(n.Right, varTypes, schema)
		if err != nil {
			return event.KindInvalid, err
		}
		if schema == nil {
			return event.KindInvalid, nil
		}
		return checkBinaryKinds(n, lk, rk)
	default:
		return event.KindInvalid, semanticErrorf(e.Pos(), "unsupported expression node %T", e)
	}
}

func checkBinaryKinds(n *BinaryExpr, lk, rk event.Kind) (event.Kind, error) {
	numeric := func(k event.Kind) bool { return k == event.KindInt || k == event.KindFloat }
	switch {
	case n.Op.IsLogical():
		if lk != event.KindBool || rk != event.KindBool {
			return event.KindInvalid, semanticErrorf(n.At, "%s needs boolean operands, got %s and %s", n.Op, lk, rk)
		}
		return event.KindBool, nil
	case n.Op.IsComparison():
		comparable := (numeric(lk) && numeric(rk)) || lk == rk
		if !comparable {
			return event.KindInvalid, semanticErrorf(n.At, "cannot compare %s with %s", lk, rk)
		}
		if lk == event.KindBool && n.Op != OpEq && n.Op != OpNeq {
			return event.KindInvalid, semanticErrorf(n.At, "booleans only support = and !=")
		}
		return event.KindBool, nil
	case n.Op.IsArithmetic():
		if !numeric(lk) || !numeric(rk) {
			return event.KindInvalid, semanticErrorf(n.At, "%s needs numeric operands, got %s and %s", n.Op, lk, rk)
		}
		if n.Op == OpMod {
			if lk != event.KindInt || rk != event.KindInt {
				return event.KindInvalid, semanticErrorf(n.At, "%% needs integer operands, got %s and %s", lk, rk)
			}
			return event.KindInt, nil
		}
		if lk == event.KindFloat || rk == event.KindFloat {
			return event.KindFloat, nil
		}
		return event.KindInt, nil
	default:
		return event.KindInvalid, semanticErrorf(n.At, "unknown operator %s", n.Op)
	}
}
