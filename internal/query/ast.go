package query

import (
	"fmt"
	"strings"

	"oostream/internal/event"
)

// Query is the parsed form of a pattern or aggregation query.
type Query struct {
	// Components are the SEQ components in source order, positive and
	// negative interleaved. For an AGGREGATE query these are the OVER
	// pattern's components (a bare `OVER Type var` desugars to a single
	// positive component).
	Components []Component
	// Where is the predicate expression, or nil if absent.
	Where Expr
	// Within is the window length in logical milliseconds; 0 means the
	// WITHIN clause was absent (engines treat that as an error at plan
	// time: unbounded sequence queries need unbounded state).
	Within event.Time
	// Return lists the projection items; empty means "return the events".
	// Mutually exclusive with Agg.
	Return []ReturnItem
	// Agg is the AGGREGATE clause, or nil for a plain pattern query. When
	// set, the query emits (window, value) aggregates over the match stream
	// of Components instead of the matches themselves.
	Agg *AggClause
}

// AggFunc enumerates the window aggregation functions.
type AggFunc string

// Aggregation functions. COUNT takes `*`; the rest take one numeric
// attribute reference.
const (
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// AggClause is the AGGREGATE head of a windowed aggregation query:
//
//	AGGREGATE AVG(p.amount) OVER SEQ(PAY p) WHERE p.amount > 0
//	WITHIN 1m SLIDE 10s GROUP BY p.card HAVING w.value > 500
//
// Each emitted value covers the half-open window (end−WITHIN, end] for a
// window end on the SLIDE grid. HAVING filters windows through the reserved
// pseudo-variable w with attributes value, count, start, end, and (under
// GROUP BY) key.
type AggClause struct {
	// Func is the aggregation function.
	Func AggFunc
	// Arg is the aggregated attribute; nil for COUNT(*).
	Arg *AttrRef
	// Slide is the window-end grid pitch in logical milliseconds; 0 means
	// the SLIDE clause was absent (plan time defaults it to WITHIN,
	// i.e. tumbling windows).
	Slide event.Time
	// GroupBy partitions windows by one attribute of a positive component;
	// nil aggregates the whole stream.
	GroupBy *AttrRef
	// Having filters emitted windows; nil emits every non-empty window.
	Having Expr
	// At is the source position of the AGGREGATE keyword.
	At Pos
}

// HavingVar is the reserved pseudo-variable HAVING expressions use to
// reference the candidate window.
const HavingVar = "w"

// Window pseudo-attributes available on HavingVar.
const (
	HavingValue = "value" // the aggregate value
	HavingCount = "count" // elements in the window
	HavingStart = "start" // exclusive window start, ms
	HavingEnd   = "end"   // inclusive window end, ms
	HavingKey   = "key"   // GROUP BY key (only with GROUP BY)
)

// Component is one element of the SEQ pattern.
type Component struct {
	// Type is the event type name to match.
	Type string
	// Var is the variable bound to the matched event.
	Var string
	// Negated marks a !() component.
	Negated bool
	// Pos is the source position of the component.
	Pos Pos
}

// ReturnItem is one projection in the RETURN clause.
type ReturnItem struct {
	// Expr computes the output value.
	Expr Expr
	// Name is the output column name (from AS, or synthesized).
	Name string
}

// String reconstructs a canonical query text (normalized keywords/spacing).
// The canonical form round-trips through Parse, which checkpoint source
// matching and multi-query admission rely on; aggregate queries always
// render the explicit `OVER SEQ(...)` form.
func (q *Query) String() string {
	var b strings.Builder
	if q.Agg != nil {
		fmt.Fprintf(&b, "AGGREGATE %s(", q.Agg.Func)
		if q.Agg.Arg != nil {
			b.WriteString(q.Agg.Arg.String())
		} else {
			b.WriteString("*")
		}
		b.WriteString(") OVER ")
	} else {
		b.WriteString("PATTERN ")
	}
	b.WriteString("SEQ(")
	for i, c := range q.Components {
		if i > 0 {
			b.WriteString(", ")
		}
		if c.Negated {
			fmt.Fprintf(&b, "!(%s %s)", c.Type, c.Var)
		} else {
			fmt.Fprintf(&b, "%s %s", c.Type, c.Var)
		}
	}
	b.WriteString(")")
	if q.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(q.Where.String())
	}
	if q.Within > 0 {
		fmt.Fprintf(&b, " WITHIN %dms", q.Within)
	}
	if q.Agg != nil {
		if q.Agg.Slide > 0 {
			fmt.Fprintf(&b, " SLIDE %dms", q.Agg.Slide)
		}
		if q.Agg.GroupBy != nil {
			fmt.Fprintf(&b, " GROUP BY %s", q.Agg.GroupBy)
		}
		if q.Agg.Having != nil {
			fmt.Fprintf(&b, " HAVING %s", q.Agg.Having)
		}
	}
	if len(q.Return) > 0 {
		b.WriteString(" RETURN ")
		for i, r := range q.Return {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s AS %s", r.Expr.String(), r.Name)
		}
	}
	return b.String()
}

// Expr is a node of the predicate/projection expression tree.
type Expr interface {
	fmt.Stringer
	// Pos returns the source position of the expression.
	Pos() Pos
	exprNode()
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpInvalid BinaryOp = iota
	OpAnd
	OpOr
	OpEq
	OpNeq
	OpLt
	OpLte
	OpGt
	OpGte
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
)

var binaryOpNames = map[BinaryOp]string{
	OpAnd: "AND", OpOr: "OR",
	OpEq: "=", OpNeq: "!=", OpLt: "<", OpLte: "<=", OpGt: ">", OpGte: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
}

// String returns the operator's source spelling.
func (op BinaryOp) String() string {
	if s, ok := binaryOpNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// IsComparison reports whether the operator yields a boolean from two
// comparable operands.
func (op BinaryOp) IsComparison() bool {
	switch op {
	case OpEq, OpNeq, OpLt, OpLte, OpGt, OpGte:
		return true
	default:
		return false
	}
}

// IsArithmetic reports whether the operator is numeric.
func (op BinaryOp) IsArithmetic() bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return true
	default:
		return false
	}
}

// IsLogical reports whether the operator combines booleans.
func (op BinaryOp) IsLogical() bool { return op == OpAnd || op == OpOr }

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op          BinaryOp
	Left, Right Expr
	At          Pos
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	// Op is OpSub for negation or OpAnd is never used; Not distinguishes.
	Not bool // true: logical NOT; false: arithmetic negation
	X   Expr
	At  Pos
}

// AttrRef is a variable.attribute reference.
type AttrRef struct {
	Var  string
	Attr string
	At   Pos
}

// Literal is a constant value.
type Literal struct {
	Val event.Value
	At  Pos
}

func (e *BinaryExpr) exprNode() {}
func (e *UnaryExpr) exprNode()  {}
func (e *AttrRef) exprNode()    {}
func (e *Literal) exprNode()    {}

// Pos returns the operator position.
func (e *BinaryExpr) Pos() Pos { return e.At }

// Pos returns the operator position.
func (e *UnaryExpr) Pos() Pos { return e.At }

// Pos returns the reference position.
func (e *AttrRef) Pos() Pos { return e.At }

// Pos returns the literal position.
func (e *Literal) Pos() Pos { return e.At }

// String renders the expression with full parenthesization.
func (e *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}

// String renders the expression.
func (e *UnaryExpr) String() string {
	if e.Not {
		return fmt.Sprintf("(NOT %s)", e.X)
	}
	return fmt.Sprintf("(-%s)", e.X)
}

// String renders var.attr.
func (e *AttrRef) String() string { return e.Var + "." + e.Attr }

// String renders the constant.
func (e *Literal) String() string { return e.Val.String() }

// Vars returns the set of pattern variables an expression references.
func Vars(e Expr) map[string]bool {
	out := make(map[string]bool)
	collectVars(e, out)
	return out
}

func collectVars(e Expr, out map[string]bool) {
	switch n := e.(type) {
	case *BinaryExpr:
		collectVars(n.Left, out)
		collectVars(n.Right, out)
	case *UnaryExpr:
		collectVars(n.X, out)
	case *AttrRef:
		out[n.Var] = true
	case *Literal:
	}
}

// Conjuncts splits an expression on top-level ANDs into its conjuncts.
// For a nil expression it returns nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(Conjuncts(b.Left), Conjuncts(b.Right)...)
	}
	return []Expr{e}
}
