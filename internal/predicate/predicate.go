// Package predicate compiles query expression trees into evaluators over
// event bindings. A binding is a slice of events indexed by slot; the
// compiler is handed a resolver that maps pattern variable names to slots,
// so the same expression machinery serves positive sequence predicates,
// negation predicates, and RETURN projections.
//
// Evaluation is dynamically typed with the same coercion rules the analyzer
// enforces statically: ints and floats mix in arithmetic and comparisons,
// everything else must match kinds. A comparison with a NaN on either side
// is unordered: <, <=, >, >= and = are false, != is true. Errors (missing
// attribute, type mismatch, division by zero) are reported to the caller,
// which typically treats a failed predicate as "no match" while counting
// the error.
//
// A compiled expression is a short postfix program (program.go): Compile
// lowers the tree once, and one loop runs the instructions over a
// frame-local operand stack and a verdict register.
package predicate

import (
	"errors"
	"fmt"

	"oostream/internal/event"
	"oostream/internal/query"
)

// TSAttr is the pseudo-attribute resolving to an event's timestamp when the
// payload does not define an attribute of the same name.
const TSAttr = "ts"

// Eval errors.
var (
	// ErrMissingAttr is wrapped when an event lacks a referenced attribute.
	ErrMissingAttr = errors.New("missing attribute")
	// ErrType is wrapped on dynamic type mismatches.
	ErrType = errors.New("type error")
	// ErrDivZero is wrapped on integer division or modulo by zero.
	ErrDivZero = errors.New("division by zero")
	// ErrUnboundSlot is wrapped when a binding slot holds no event.
	ErrUnboundSlot = errors.New("unbound slot")
)

// SlotResolver maps a pattern variable name to its binding slot.
type SlotResolver func(varName string) (slot int, ok bool)

// Compiled is an executable expression. It is immutable, so one Compiled
// may serve any number of engines.
type Compiled struct {
	code []instr
	// depth is the deepest the operand stack gets while code runs.
	depth int
	// verdict says the program leaves its result in the verdict register
	// (a comparison, NOT, AND, OR) and not on the operand stack.
	verdict bool
	// refs is the set of slots the expression reads.
	refs []int
	// mask is the slot set as a bitmask (slots < 64).
	mask uint64
	src  string
	// count, when set, is added one to per evaluation (Counted), loads per
	// side its pair form loads (LoadsCounted), and untyped per candidate its
	// pair form's run kernels take one at a time (UntypedCounted).
	count, loads, untyped *uint64
}

// Refs returns the slots the expression reads, in ascending order.
func (c *Compiled) Refs() []int { return c.refs }

// Mask returns the referenced slots as a bitmask.
func (c *Compiled) Mask() uint64 { return c.mask }

// String returns the source form of the compiled expression.
func (c *Compiled) String() string { return c.src }

// Eval computes the expression value under the binding.
func (c *Compiled) Eval(binding []event.Event) (event.Value, error) {
	var v event.Value
	_, err := c.run(binding, &v)
	return v, err
}

// EvalBool evaluates and requires a boolean result.
func (c *Compiled) EvalBool(binding []event.Event) (bool, error) {
	return c.run(binding, nil)
}

// Counted returns a copy of c that adds one to *n each time it is
// evaluated, before anything else: a predicate that does not error leaves
// no other trace of having run. The pair form of the copy (Pair) counts each
// comparison it makes, so a counted predicate runs the path an uncounted one
// runs.
func (c *Compiled) Counted(n *uint64) *Compiled {
	counted := *c
	counted.count = n
	return &counted
}

// LoadsCounted returns a copy of c whose pair form (Pair) adds one to *n
// each time it loads a side: what a construction pays per operand read.
func (c *Compiled) LoadsCounted(n *uint64) *Compiled {
	counted := *c
	counted.loads = n
	return &counted
}

// UntypedCounted returns a copy of c whose pair form (Pair) adds one to *n
// for each candidate Filter or Folds takes one at a time, through Compare
// or fold, instead of in their float64 loops: what a construction's
// pre-filter and bounds pay the general path.
func (c *Compiled) UntypedCounted(n *uint64) *Compiled {
	counted := *c
	counted.untyped = n
	return &counted
}

// Compile lowers the expression to a program. Variable references are
// resolved through the resolver; unknown variables are compile errors.
// Slots must be below 64 (patterns are far shorter in practice).
func Compile(e query.Expr, resolve SlotResolver) (*Compiled, error) {
	var c compiler
	verdict, err := c.expr(e, resolve)
	if err != nil {
		return nil, err
	}
	var refs []int
	for s := 0; s < 64; s++ {
		if c.mask&(1<<uint(s)) != 0 {
			refs = append(refs, s)
		}
	}
	return &Compiled{code: c.code, depth: c.deepest, verdict: verdict, refs: refs, mask: c.mask, src: e.String()}, nil
}

// compiler accumulates the program of one expression. sp follows the
// operand stack as the emitted code would move it.
type compiler struct {
	code        []instr
	sp, deepest int
	mask        uint64
}

// emit appends an instruction that moves the stack pointer by delta.
func (c *compiler) emit(in instr, delta int) {
	c.code = append(c.code, in)
	c.sp += delta
	c.deepest = max(c.deepest, c.sp)
}

// expr emits code for e and reports where it leaves the result: in the
// verdict register (true) or on top of the operand stack.
func (c *compiler) expr(e query.Expr, resolve SlotResolver) (verdict bool, err error) {
	o, inPlace, err := c.operand(e, resolve)
	if err != nil {
		return false, err
	}
	if inPlace {
		c.emit(instr{op: opPush, a: o}, +1)
		return false, nil
	}
	switch n := e.(type) {
	case *query.UnaryExpr:
		if n.Not {
			if err := c.truth(n.X, "NOT", resolve); err != nil {
				return false, err
			}
			c.emit(instr{op: opNot}, 0)
			return true, nil
		}
		if err := c.value(n.X, resolve); err != nil {
			return false, err
		}
		c.emit(instr{op: opNeg}, 0)
		return false, nil
	case *query.BinaryExpr:
		switch {
		case n.Op.IsLogical():
			return true, c.logical(n, resolve)
		case n.Op.IsComparison():
			return true, c.comparison(n, resolve)
		case n.Op.IsArithmetic():
			if err := c.value(n.Left, resolve); err != nil {
				return false, err
			}
			if err := c.value(n.Right, resolve); err != nil {
				return false, err
			}
			c.emit(instr{op: opArith, oper: n.Op}, -1)
			return false, nil
		default:
			return false, fmt.Errorf("unknown operator %s at %s", n.Op, n.At)
		}
	default:
		return false, fmt.Errorf("unsupported expression node %T at %s", e, e.Pos())
	}
}

// value emits code that leaves e on top of the operand stack.
func (c *compiler) value(e query.Expr, resolve SlotResolver) error {
	verdict, err := c.expr(e, resolve)
	if err == nil && verdict {
		c.emit(instr{op: opValue}, +1)
	}
	return err
}

// truth emits code that leaves e in the verdict register, for the named
// connective: a value that is no bool is that connective's type error.
func (c *compiler) truth(e query.Expr, connective string, resolve SlotResolver) error {
	verdict, err := c.expr(e, resolve)
	if err == nil && !verdict {
		c.emit(instr{op: opTruth, connective: connective}, -1)
	}
	return err
}

// operand returns e as something an instruction reads in place — a literal,
// an attribute, or an attribute plus or minus a numeric literal — and
// whether e has that shape.
func (c *compiler) operand(e query.Expr, resolve SlotResolver) (operand, bool, error) {
	switch n := e.(type) {
	case *query.Literal:
		return operand{mode: literal, val: n.Val}, true, nil
	case *query.AttrRef:
		slot, ok := resolve(n.Var)
		if !ok {
			return operand{}, false, fmt.Errorf("unknown variable %q at %s", n.Var, n.At)
		}
		if slot < 0 || slot >= 64 {
			return operand{}, false, fmt.Errorf("slot %d out of range for %q", slot, n.Var)
		}
		c.mask |= 1 << uint(slot)
		return operand{mode: attribute, slot: slot, attr: event.Intern(n.Attr), ts: n.Attr == TSAttr, ref: n.String()}, true, nil
	case *query.BinaryExpr:
		attr, isAttr := n.Left.(*query.AttrRef)
		k, isLit := n.Right.(*query.Literal)
		if (n.Op != query.OpAdd && n.Op != query.OpSub) || !isAttr || !isLit || !k.Val.IsNumeric() {
			return operand{}, false, nil
		}
		o, _, err := c.operand(attr, resolve)
		o.offset, o.val = n.Op, k.Val
		o.kf, _ = k.Val.AsFloat()
		o.ki, o.kInt = k.Val.AsInt()
		if n.Op == query.OpSub {
			o.kf, o.ki = -o.kf, -o.ki // exact: x - k is x + (-k) in both arithmetics
		}
		return o, err == nil, err
	default:
		return operand{}, false, nil
	}
}

// logical emits AND/OR with today's short-circuit: the right operand is not
// evaluated (and cannot error) when the left operand decides the result.
func (c *compiler) logical(n *query.BinaryExpr, resolve SlotResolver) error {
	if err := c.truth(n.Left, n.Op.String(), resolve); err != nil {
		return err
	}
	op := opAnd
	if n.Op == query.OpOr {
		op = opOr
	}
	jump := len(c.code)
	c.emit(instr{op: op}, 0)
	if err := c.truth(n.Right, n.Op.String(), resolve); err != nil {
		return err
	}
	c.code[jump].skip = len(c.code) - jump - 1
	return nil
}

// comparison emits one opCmp. A side that is not an operand is computed
// onto the stack first; a right side on the stack takes the left side there
// too, so the left side is still evaluated (and still fails) first.
func (c *compiler) comparison(n *query.BinaryExpr, resolve SlotResolver) error {
	a, aInPlace, err := c.operand(n.Left, resolve)
	if err != nil {
		return err
	}
	b, bInPlace, err := c.operand(n.Right, resolve)
	if err != nil {
		return err
	}
	in := instr{op: opCmp, oper: n.Op, a: a, b: b}
	if !aInPlace || !bInPlace {
		if err := c.value(n.Left, resolve); err != nil {
			return err
		}
		in.a = operand{mode: onStack}
		in.pops++
	}
	if !bInPlace {
		if err := c.value(n.Right, resolve); err != nil {
			return err
		}
		in.b = operand{mode: onStack}
		in.pops++
	}
	c.emit(in, -in.pops)
	return nil
}
