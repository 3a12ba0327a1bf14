package predicate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"oostream/internal/event"
	"oostream/internal/query"
)

// refEval is the evaluator written down a second time, as a recursion over
// the tree with nothing compiled: the semantics of the package comment, for
// the program to be checked against. Its errors are the bare sentinels.
func refEval(e query.Expr, resolve SlotResolver, binding []event.Event) (event.Value, error) {
	switch n := e.(type) {
	case *query.Literal:
		return n.Val, nil
	case *query.AttrRef:
		slot, _ := resolve(n.Var)
		if slot >= len(binding) {
			return event.Value{}, ErrUnboundSlot
		}
		if v, ok := binding[slot].Attr(n.Attr); ok {
			return v, nil
		}
		if n.Attr == TSAttr {
			return event.Int(binding[slot].TS), nil
		}
		return event.Value{}, ErrMissingAttr
	case *query.UnaryExpr:
		v, err := refEval(n.X, resolve, binding)
		if err != nil {
			return event.Value{}, err
		}
		b, isBool := v.AsBool()
		i, isInt := v.AsInt()
		f, isNum := v.AsFloat()
		switch {
		case n.Not && isBool:
			return event.Bool(!b), nil
		case !n.Not && isInt:
			return event.Int(-i), nil
		case !n.Not && isNum:
			return event.Float(-f), nil
		}
		return event.Value{}, ErrType
	}
	n := e.(*query.BinaryExpr)
	l, err := refEval(n.Left, resolve, binding)
	if err != nil {
		return event.Value{}, err
	}
	if n.Op.IsLogical() {
		lb, ok := l.AsBool()
		if !ok {
			return event.Value{}, ErrType
		}
		if lb == (n.Op == query.OpOr) {
			return event.Bool(lb), nil // decided: the right side is not evaluated
		}
		r, err := refEval(n.Right, resolve, binding)
		if err != nil {
			return event.Value{}, err
		}
		if _, ok := r.AsBool(); !ok {
			return event.Value{}, ErrType
		}
		return r, nil
	}
	r, err := refEval(n.Right, resolve, binding)
	if err != nil {
		return event.Value{}, err
	}
	li, lInt := l.AsInt()
	ri, rInt := r.AsInt()
	lf, lNum := l.AsFloat()
	rf, rNum := r.AsFloat()
	if n.Op.IsArithmetic() {
		switch {
		case !lNum || !rNum, n.Op == query.OpMod && !(lInt && rInt):
			return event.Value{}, ErrType
		case (n.Op == query.OpDiv || n.Op == query.OpMod) && rf == 0:
			return event.Value{}, ErrDivZero
		case lInt && rInt:
			return event.Int(arithOn(n.Op, li, ri)), nil
		}
		return event.Float(arithOn(n.Op, lf, rf)), nil
	}
	// Comparison: -1, 0, +1, or 2 for a pair with no order (a NaN).
	var c int
	switch {
	case lInt && rInt:
		c = compareOrdered(li, ri)
	case lNum && rNum:
		c = compareOrdered(lf, rf)
	case n.Op == query.OpEq || n.Op == query.OpNeq:
		c = 2
		if l.Equal(r) {
			c = 0
		}
	case l.Kind() != r.Kind() || !l.Valid():
		return event.Value{}, event.ErrIncomparable
	case l.Kind() == event.KindString:
		ls, _ := l.AsString()
		rs, _ := r.AsString()
		c = compareOrdered(ls, rs)
	default:
		c = compareOrdered(fmt.Sprint(l), fmt.Sprint(r)) // "false" < "true"
	}
	return event.Bool(map[query.BinaryOp]bool{
		query.OpEq: c == 0, query.OpNeq: c != 0, query.OpLt: c == -1,
		query.OpLte: c == -1 || c == 0, query.OpGt: c == 1, query.OpGte: c == 1 || c == 0,
	}[n.Op]), nil
}

// arithOn is a op b; the caller has ruled out % on floats and a zero divisor.
func arithOn[T int64 | float64](op query.BinaryOp, a, b T) T {
	switch op {
	case query.OpAdd:
		return a + b
	case query.OpSub:
		return a - b
	case query.OpMul:
		return a * b
	case query.OpDiv:
		return a / b
	}
	return T(int64(a) % int64(b))
}

func compareOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a == b:
		return 0
	case a > b:
		return 1
	}
	return 2
}

// threeSlots resolves a, b, c to slots 0, 1, 2.
func threeSlots(name string) (int, bool) {
	if len(name) == 1 && name[0] >= 'a' && name[0] <= 'c' {
		return int(name[0] - 'a'), true
	}
	return 0, false
}

var sentinels = []error{ErrMissingAttr, ErrType, ErrDivZero, ErrUnboundSlot, event.ErrIncomparable}

func sentinelOf(err error) error {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}

// sameValue is == on values, but any NaN equals any NaN.
func sameValue(a, b event.Value) bool {
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	if a.Kind() == event.KindFloat && b.Kind() == event.KindFloat && math.IsNaN(af) && math.IsNaN(bf) {
		return true
	}
	return a == b
}

// attrRefs collects the attribute names e reads.
func attrRefs(e query.Expr, into map[string]bool) {
	switch n := e.(type) {
	case *query.AttrRef:
		into[n.Attr] = true
	case *query.UnaryExpr:
		attrRefs(n.X, into)
	case *query.BinaryExpr:
		attrRefs(n.Left, into)
		attrRefs(n.Right, into)
	}
}

var attrValues = []event.Value{
	event.Int(0), event.Int(1), event.Int(-1), event.Int(3), event.Int(7), event.Int(math.MaxInt64), event.Int(math.MinInt64),
	event.Float(0), event.Float(math.Copysign(0, -1)), event.Float(2.5), event.Float(3), event.Float(-1e300), event.Float(1 << 62),
	event.Float(math.NaN()), event.Float(math.Inf(1)), event.Float(math.Inf(-1)),
	event.Str(""), event.Str("hi"), event.Str("x"), event.Bool(true), event.Bool(false),
}

// randomBinding builds zero to three events; each attribute e reads is
// missing from an event one time in five and otherwise any of attrValues.
func randomBinding(e query.Expr, rng *rand.Rand) []event.Event {
	names := map[string]bool{}
	attrRefs(e, names)
	binding := make([]event.Event, rng.Intn(4))
	if rng.Intn(4) > 0 {
		binding = make([]event.Event, 3) // mostly fully bound
	}
	for i := range binding {
		attrs := event.Attrs{}
		for name := range names {
			if rng.Intn(5) > 0 {
				attrs[name] = attrValues[rng.Intn(len(attrValues))]
			}
		}
		binding[i] = event.New(string(rune('A'+i)), event.Time(100*(i+1)), attrs)
	}
	return binding
}

// checkAgainstReference evaluates e under bindings drawn from seed, by the
// compiled program and by refEval: equal values, or errors that agree on
// the sentinel; and EvalBool is Eval restricted to bools.
func checkAgainstReference(t *testing.T, e query.Expr, seed int64) {
	t.Helper()
	c, err := Compile(e, threeSlots)
	if err != nil {
		return // a variable outside a, b, c
	}
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 8; round++ {
		binding := randomBinding(e, rng)
		want, wantErr := refEval(e, threeSlots, binding)
		got, gotErr := c.Eval(binding)
		if wantErr != nil || gotErr != nil {
			if sentinelOf(gotErr) != wantErr {
				t.Fatalf("%s under %v: error %v, reference %v", e, binding, gotErr, wantErr)
			}
		} else if !sameValue(got, want) {
			t.Fatalf("%s under %v: %v, reference %v", e, binding, got, want)
		}
		holds, boolErr := c.EvalBool(binding)
		wantHolds, isBool := want.AsBool()
		switch {
		case wantErr != nil:
			if sentinelOf(boolErr) != wantErr || holds {
				t.Fatalf("%s under %v: EvalBool %v, %v; reference error %v", e, binding, holds, boolErr, wantErr)
			}
		case !isBool:
			if !errors.Is(boolErr, ErrType) || holds {
				t.Fatalf("%s under %v: EvalBool %v, %v on a %s", e, binding, holds, boolErr, want.Kind())
			}
		case boolErr != nil || holds != wantHolds:
			t.Fatalf("%s under %v: EvalBool %v, %v; reference %v", e, binding, holds, boolErr, wantHolds)
		}
	}
}

// referenceCorpus is FuzzParseExpr's seed corpus, the four shapes
// BenchmarkEvalBool times, and one of each thing the program treats
// specially.
var referenceCorpus = []string{
	"a.x = 1", "a.x + b.y * 2 <= 3.5", "NOT (a.b = 'x') AND c.d != FALSE",
	"-a.x % 2 = 0", "((a.x))", "1 = ", ". .", "5s + 1",
	"a.sym = b.sym", "a.price > b.price", "b.price < a.price - 3", "b.nope < a.price - 3",
	"a.x - 3 < b.nope", "b.nope < a.x * a.s", "a.x * 2 > b.y", "(a.x > 1) = b.ok", "a.ok OR b.x / c.x > 1",
	"c.ts - a.ts < 150 AND NOT b.ok", "a.x + 1", "a.x / b.x", "a.x % b.x", "-(a.x + b.x) * (c.x - 2) >= a.f + 0.5",
	"a.x + (b.x + (c.x + (a.y + (b.y + (c.y + 1))))) > 0", "a.s < b.s", "a.ok < b.ok", "a.x >= b.f + 0.5",
}

func FuzzEvalMatchesReference(f *testing.F) {
	for i, src := range referenceCorpus {
		f.Add(src, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		e, err := query.ParseExpr(src)
		if err != nil {
			return
		}
		checkAgainstReference(t, e, seed)
	})
}

// randomExpr draws a tree over a, b, c and a handful of attributes, of any
// type at any place: most of them fail, which is the point.
func randomExpr(rng *rand.Rand, depth int) query.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(3) == 0 {
			lits := []event.Value{event.Int(0), event.Int(2), event.Int(-3), event.Float(0.5), event.Float(3), event.Str("hi"), event.Bool(true)}
			return &query.Literal{Val: lits[rng.Intn(len(lits))]}
		}
		attrs := []string{"x", "y", "f", "s", "ok", "ts"}
		return &query.AttrRef{Var: string(rune('a' + rng.Intn(3))), Attr: attrs[rng.Intn(len(attrs))]}
	}
	if rng.Intn(6) == 0 {
		return &query.UnaryExpr{Not: rng.Intn(2) == 0, X: randomExpr(rng, depth-1)}
	}
	op := query.BinaryOp(int(query.OpAnd) + rng.Intn(int(query.OpMod-query.OpAnd)+1))
	return &query.BinaryExpr{Op: op, Left: randomExpr(rng, depth-1), Right: randomExpr(rng, depth-1)}
}

// TestEvalMatchesReference is the fuzz target's property over trees the
// parser's corpus would take long to reach.
func TestEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 20000; i++ {
		checkAgainstReference(t, randomExpr(rng, 1+rng.Intn(5)), int64(i))
	}
	for i, src := range referenceCorpus {
		if e, err := query.ParseExpr(src); err == nil {
			checkAgainstReference(t, e, int64(i))
		}
	}
}

// TestProgramEdges: the cases the lowering could get wrong one at a time.
func TestProgramEdges(t *testing.T) {
	bind := []event.Event{
		event.New("A", 100, event.Attrs{"x": event.Int(5), "min": event.Int(math.MinInt64), "max": event.Int(math.MaxInt64), "ts": event.Int(42), "s": event.Str("hi")}),
		event.New("B", 200, event.Attrs{"x": event.Int(-1), "z": event.Int(0)}),
	}
	for _, tt := range []struct {
		src  string
		want event.Value
		err  error
	}{
		// Deeper than the operand stack a run keeps in its frame.
		{"a.x + (a.x + (a.x + (a.x + (a.x + (a.x + (a.x * 2))))))", event.Int(40), nil},
		{"1 + (2 * (3 + (4 * (5 + (6 * (a.x - b.x))))))", event.Int(1 + 2*(3+4*(5+6*6))), nil},
		// A decided AND/OR does not evaluate, and so does not fail on, its right side.
		{"a.x = 9 AND b.nope = 1", event.Bool(false), nil},
		{"a.x = 5 OR b.x / b.z = 1", event.Bool(true), nil},
		{"a.x = 5 AND b.nope = 1", event.Value{}, ErrMissingAttr},
		{"a.x = 9 OR b.x / b.z = 1", event.Value{}, ErrDivZero},
		{"(a.x = 9 AND b.nope = 1) OR a.x = 5", event.Bool(true), nil},
		// The left side fails first, wherever the lowering puts it.
		{"a.s - 3 < b.nope", event.Value{}, ErrType},
		{"b.nope < a.x * a.s", event.Value{}, ErrMissingAttr},
		// ts is the timestamp unless the payload has one.
		{"a.ts", event.Int(42), nil},
		{"b.ts", event.Int(200), nil},
		{"b.ts - a.ts = 158", event.Bool(true), nil},
		{"b.ts + 1", event.Int(201), nil},
		// Integer arithmetic wraps and MinInt64 / -1 does not trap.
		{"a.max + 1 = a.min", event.Bool(true), nil},
		{"a.min - 1 = a.max", event.Bool(true), nil},
		{"a.max * 2", event.Int(-2), nil},
		{"a.min / b.x", event.Int(math.MinInt64), nil},
		{"a.min % b.x", event.Int(0), nil},
		{"-a.min", event.Int(math.MinInt64), nil},
		{"a.x % b.z", event.Value{}, ErrDivZero},
		{"a.x / b.z", event.Value{}, ErrDivZero},
		{"a.x / 0.0", event.Value{}, ErrDivZero},
		// A verdict used as a value, and a value used as a verdict.
		{"(a.x > 1) = (b.x < 0)", event.Bool(true), nil},
		{"NOT (a.x > 1)", event.Bool(false), nil},
		{"a.x > 1", event.Bool(true), nil},
	} {
		c := compileSrc(t, tt.src)
		got, err := c.Eval(bind)
		if !errors.Is(err, tt.err) || (err == nil) != (tt.err == nil) {
			t.Errorf("%q: error %v, want %v", tt.src, err, tt.err)
		} else if got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
		e, _ := query.ParseExpr(tt.src)
		if want, wantErr := refEval(e, twoSlots, bind); want != tt.want || wantErr != tt.err {
			t.Errorf("%q: the reference says %v, %v", tt.src, want, wantErr)
		}
	}
	if c := compileSrc(t, "a.x + (a.x + (a.x + (a.x + (a.x + (a.x + (a.x * 2))))))"); c.depth <= fixedDepth {
		t.Errorf("depth %d does not leave the fixed stack of %d: the case tests nothing", c.depth, fixedDepth)
	}
}

// TestComparisonWithNaN: a NaN is unordered. Over every pair of numbers,
// <= is < or =, and >= is > or =; with a NaN on either side all five are
// false and != is true.
func TestComparisonWithNaN(t *testing.T) {
	nan := math.NaN()
	vals := []event.Value{
		event.Int(1), event.Int(-7), event.Int(math.MaxInt64), event.Float(1), event.Float(-0.5),
		event.Float(math.Inf(1)), event.Float(math.Inf(-1)), event.Float(nan),
	}
	preds := map[string]*Compiled{}
	for _, op := range []string{"<", "<=", "=", ">=", ">", "!="} {
		preds[op] = compileSrc(t, "a.v "+op+" b.v")
	}
	for _, x := range vals {
		for _, y := range vals {
			bind := binding(event.Attrs{"v": x}, event.Attrs{"v": y})
			got := map[string]bool{}
			for op, c := range preds {
				holds, err := c.EvalBool(bind)
				if err != nil {
					t.Fatalf("%v %s %v: %v", x, op, y, err)
				}
				got[op] = holds
			}
			if got["<="] != (got["<"] || got["="]) || got[">="] != (got[">"] || got["="]) || got["!="] == got["="] {
				t.Errorf("%v against %v: %v", x, y, got)
			}
			xf, _ := x.AsFloat()
			yf, _ := y.AsFloat()
			if unordered := math.IsNaN(xf) || math.IsNaN(yf); unordered && (got["<"] || got["<="] || got["="] || got[">="] || got[">"]) {
				t.Errorf("%v against %v, unordered: %v", x, y, got)
			}
		}
	}
	// The operand routes: a literal, an offset, a value from the stack.
	bind := binding(event.Attrs{"v": event.Float(nan), "one": event.Int(1)}, nil)
	for _, src := range []string{"1 <= a.v", "a.v >= 1", "a.v <= a.v", "a.one <= a.v + 1", "a.v - 1 >= a.one", "a.one * 1 <= a.v", "a.v * 1 >= a.v * 1"} {
		if holds, err := compileSrc(t, src).EvalBool(bind); holds || err != nil {
			t.Errorf("%q with v = NaN: %v, %v", src, holds, err)
		}
	}
}

// TestEvalErrorText: the message of every failure, byte for byte as the
// closure tree formatted it (strings taken at ec0681c), and at most one
// allocation for a failure nobody prints.
func TestEvalErrorText(t *testing.T) {
	bind := binding(
		event.Attrs{"x": event.Int(5), "s": event.Str("hi"), "z": event.Int(0), "f": event.Float(2.5), "ok": event.Bool(true)},
		event.Attrs{"x": event.Int(7)},
	)
	short := bind[:1]
	for _, tt := range []struct {
		src  string
		bind []event.Event
		want string
	}{
		// TestEvalErrors.
		{"a.nope = 1", bind, "a.nope on A: missing attribute"},
		{"a.s + 1 = 2", bind, "+ on string and int: type error"},
		{"a.s < 1", bind, "<: compare string with int: values are not comparable"},
		{"NOT a.x", bind, "NOT on int: type error"},
		{"-a.s = 1", bind, "negation on string: type error"},
		{"a.x AND a.x = 5", bind, "AND on int: type error"},
		{"a.x = 5 AND a.x", bind, "AND on int: type error"},
		{"a.x / a.z = 1", bind, "/: division by zero"},
		{"a.x % a.z = 1", bind, "%: division by zero"},
		{"a.x % 2.0 = 1", bind, "% needs integers, got int and float: type error"},
		// TestEvalBoolOnNonBool, TestUnboundSlot.
		{"a.x + 1", bind, "predicate (a.x + 1) yielded int, want bool: type error"},
		{"b.x = 1", short, "b.x: slot 1: unbound slot"},
		// The same failures through the other operand routes.
		{"a.x / 0.0", bind, "/: division by zero"},
		{"a.ok < a.s", bind, "<: compare bool with string: values are not comparable"},
		{"a.x OR a.ok", bind, "OR on int: type error"},
		{"b.nope < a.x - 3", bind, "b.nope on B: missing attribute"},
		{"a.x < b.nope + 3", bind, "b.nope on B: missing attribute"},
		{"a.s < a.x - 3", bind, "<: compare string with int: values are not comparable"},
		{"a.x - 3 > a.s", bind, ">: compare int with string: values are not comparable"},
		{"a.x >= a.ok", bind, ">=: compare int with bool: values are not comparable"},
		{"a.s - 3 < a.x", bind, "- on string and int: type error"},
		{"a.f * a.s", bind, "* on float and string: type error"},
		{"a.f % a.x", bind, "% needs integers, got float and int: type error"},
		{"a.x < b.x - 3", short, "b.x: slot 1: unbound slot"},
	} {
		c := compileSrc(t, tt.src)
		_, err := c.EvalBool(tt.bind)
		if err == nil || err.Error() != tt.want {
			t.Errorf("%q: %v, want %q", tt.src, err, tt.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, sinkErr = c.EvalBool(tt.bind) }); allocs > 1 {
			t.Errorf("%q: a failing evaluation allocates %.0f times, want at most 1", tt.src, allocs)
		}
	}
}

var sinkErr error

// TestEvalAllocFree: an evaluation that succeeds allocates nothing,
// whichever route its operands take.
func TestEvalAllocFree(t *testing.T) {
	bind := binding(
		event.Attrs{"sym": event.Int(3), "price": event.Float(101.25), "name": event.Str("ibm")},
		event.Attrs{"sym": event.Int(3), "price": event.Float(98.5), "name": event.Str("ibm")},
	)
	for _, src := range []string{
		// BenchmarkEvalBool's shapes that succeed.
		"a.sym = b.sym", "a.price > b.price", "b.price < a.price - 3",
		// The stack, the general comparison, the connectives.
		"a.price * 2 > b.price + b.sym", "a.name = b.name AND NOT a.sym + 1 < b.sym OR b.ts > a.ts",
	} {
		c := compileSrc(t, src)
		if allocs := testing.AllocsPerRun(100, func() { sinkBool, sinkErr = c.EvalBool(bind) }); allocs != 0 || sinkErr != nil {
			t.Errorf("%q: %.0f allocations (error %v), want none", src, allocs, sinkErr)
		}
	}
}
