package predicate

import (
	"cmp"

	"oostream/internal/event"
	"oostream/internal/query"
)

// opcode names what one instruction does. The machine has two places for a
// result: the operand stack, for the values arithmetic and comparisons
// read, and the verdict register, the one bool a comparison writes and the
// connectives read and write. A WHERE conjunct is a comparison, or a few
// joined by AND/OR, and never touches the stack at all.
type opcode uint8

const (
	// opPush pushes operand a.
	opPush opcode = iota
	// opCmp compares operand a with operand b under oper into the verdict;
	// pops counts the operands it takes from the stack.
	opCmp
	// opArith pops right then left and pushes left oper right.
	opArith
	// opNeg negates the number on top of the stack.
	opNeg
	// opNot inverts the verdict.
	opNot
	// opAnd and opOr skip the next skip instructions — the right side —
	// when the verdict decides the result: false for AND, true for OR.
	opAnd
	opOr
	// opTruth pops a value into the verdict; it has to be a bool, or
	// connective has a type error.
	opTruth
	// opValue pushes the verdict as a bool value.
	opValue
)

type instr struct {
	op   opcode
	pops int
	// oper is the source operator of opCmp and opArith.
	oper query.BinaryOp
	skip int
	a, b operand
	// connective is the AND, OR or NOT opTruth converts an operand of.
	connective string
}

// operandMode says where an operand's value comes from.
type operandMode uint8

const (
	onStack operandMode = iota
	literal
	attribute
)

// operand is one side of a comparison, or what opPush pushes: a value the
// earlier instructions left on the stack, a literal, or an attribute of a
// bound event, optionally plus or minus a numeric literal.
type operand struct {
	mode operandMode
	// ts marks attr as TSAttr: the event's timestamp when the payload has
	// no attribute of that name.
	ts   bool
	slot int
	// attr is the name table's string (event.Intern), so the lookup finds
	// a decoded event's name by its address.
	attr string
	// offset is OpAdd or OpSub when val is added to or taken from the
	// attribute, else OpInvalid and val is the literal of a literal operand.
	offset query.BinaryOp
	// kf is val as a float64 to add when offset is set, negated for OpSub,
	// and ki the same as an int64 when val is one (kInt).
	kf   float64
	ki   int64
	kInt bool
	val  event.Value
	// ref is the var.attr text error messages quote.
	ref string
}

// status is how a step of the program ended. An evalError is built from it
// only when it is not stOK.
type status uint8

const (
	stOK           status = iota
	stUnbound             // binding shorter than the slot
	stMissing             // event without the attribute
	stArithType           // arithmetic on a non-number
	stModType             // % on a float
	stDivZero             // / or % by zero
	stNegType             // unary minus on a non-number
	stTruthType           // AND, OR or NOT on a non-bool
	stIncomparable        // ordered comparison across kinds
	stNotBool             // EvalBool on a program that yields no bool
)

// fixedDepth is the operand stack a run keeps in its frame. Operands are
// read in place and verdicts are not values, so only arithmetic between
// attributes uses the stack, and only nested arithmetic uses much of it.
const fixedDepth = 4

// run executes the program. The result goes to *value, or, when value is
// nil, is returned as the bool it then has to be.
func (c *Compiled) run(binding []event.Event, value *event.Value) (bool, error) {
	if c.count != nil {
		*c.count++
	}
	var stack []event.Value
	if c.depth > fixedDepth {
		stack = make([]event.Value, c.depth)
	} else if c.depth > 0 {
		var fixed [fixedDepth]event.Value
		stack = fixed[:]
	}
	sp := 0
	verdict := false
	code := c.code
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.op {
		case opPush:
			e := bound(binding, in.a.slot)
			v, st := in.a.load(e)
			if st != stOK {
				return false, in.a.fail(st, v, e)
			}
			stack[sp] = v
			sp++
		case opCmp:
			// Stack operands were pushed left first; an operand read in
			// place is evaluated here, the left one first.
			var l, r event.Value
			var st status
			switch in.pops {
			case 0:
				e := bound(binding, in.a.slot)
				if l, st = in.a.load(e); st != stOK {
					return false, in.a.fail(st, l, e)
				}
				e = bound(binding, in.b.slot)
				if r, st = in.b.load(e); st != stOK {
					return false, in.b.fail(st, r, e)
				}
			case 1:
				l = stack[sp-1]
				e := bound(binding, in.b.slot)
				if r, st = in.b.load(e); st != stOK {
					return false, in.b.fail(st, r, e)
				}
			default:
				l, r = stack[sp-2], stack[sp-1]
			}
			sp -= in.pops
			// Two floats or two ints, on the numbers; compare has the rest.
			switch lk, rk := l.Kind(), r.Kind(); {
			case lk == event.KindFloat && rk == event.KindFloat:
				lf, _ := l.AsFloat()
				rf, _ := r.AsFloat()
				verdict = ordered(in.oper, lf, rf)
			case lk == event.KindInt && rk == event.KindInt:
				li, _ := l.AsInt()
				ri, _ := r.AsInt()
				verdict = ordered(in.oper, li, ri)
			default:
				if verdict, st = compare(in.oper, l, r); st != stOK {
					return false, &evalError{st: st, op: in.oper, lk: lk, rk: rk}
				}
			}
		case opArith:
			l, r := stack[sp-2], stack[sp-1]
			v, st := arith(in.oper, l, r)
			if st != stOK {
				return false, &evalError{st: st, op: in.oper, lk: l.Kind(), rk: r.Kind()}
			}
			sp--
			stack[sp-1] = v
		case opNeg:
			switch v := stack[sp-1]; v.Kind() {
			case event.KindInt:
				i, _ := v.AsInt()
				stack[sp-1] = event.Int(-i)
			case event.KindFloat:
				f, _ := v.AsFloat()
				stack[sp-1] = event.Float(-f)
			default:
				return false, &evalError{st: stNegType, lk: v.Kind()}
			}
		case opNot:
			verdict = !verdict
		case opAnd:
			if !verdict {
				pc += in.skip
			}
		case opOr:
			if verdict {
				pc += in.skip
			}
		case opTruth:
			sp--
			var isBool bool
			if verdict, isBool = stack[sp].AsBool(); !isBool {
				return false, &evalError{st: stTruthType, ref: in.connective, lk: stack[sp].Kind()}
			}
		case opValue:
			stack[sp] = event.Bool(verdict)
			sp++
		}
	}
	switch {
	case value == nil && c.verdict:
		return verdict, nil
	case value == nil:
		holds, isBool := stack[0].AsBool()
		if !isBool {
			return false, &evalError{st: stNotBool, ref: c.src, lk: stack[0].Kind()}
		}
		return holds, nil
	case c.verdict:
		*value = event.Bool(verdict)
	default:
		*value = stack[0]
	}
	return false, nil
}

// bound returns the event binding holds at slot, nil when it is shorter.
func bound(binding []event.Event, slot int) *event.Event {
	if slot < len(binding) {
		return &binding[slot]
	}
	return nil
}

// load reads an operand that is not on the stack; e is the event bound to
// its slot, nil when the slot is unbound. When the status is not stOK, the
// value returned is the attribute's as far as it was read.
//
// The first block is what the construction walk runs: an attribute that is
// there, offset on the int64 or float64 itself. Everything else is out of
// line so that this stays small.
func (o *operand) load(e *event.Event) (event.Value, status) {
	if o.mode == attribute && e != nil {
		if v, found := e.Attrs.Get(o.attr); found {
			switch {
			case o.offset == query.OpInvalid:
				return v, stOK
			case v.Kind() == event.KindFloat:
				f, _ := v.AsFloat()
				return event.Float(f + o.kf), stOK
			case v.Kind() == event.KindInt && o.kInt:
				i, _ := v.AsInt()
				return event.Int(i + o.ki), stOK
			}
			return o.shift(v)
		}
		return o.absent(e)
	}
	if o.mode == literal {
		return o.val, stOK
	}
	return event.Value{}, stUnbound
}

// shift applies the offset by the general rules: an int attribute under a
// float literal, or a type error.
func (o *operand) shift(v event.Value) (event.Value, status) {
	sum, st := arith(o.offset, v, o.val)
	if st != stOK {
		return v, st
	}
	return sum, stOK
}

// absent is load for an attribute e does not have: the timestamp when it
// is ts, otherwise the reason.
func (o *operand) absent(e *event.Event) (event.Value, status) {
	switch {
	case !o.ts:
		return event.Value{}, stMissing
	case o.offset == query.OpInvalid:
		return event.Int(e.TS), stOK
	}
	return o.shift(event.Int(e.TS))
}

// fail renders a failed load of e: v is what load returned beside st.
func (o *operand) fail(st status, v event.Value, e *event.Event) *evalError {
	err := &evalError{st: st, ref: o.ref, slot: o.slot, op: o.offset, lk: v.Kind(), rk: o.val.Kind()}
	if st == stMissing {
		err.typ = e.Type
	}
	return err
}

// arith computes l op r for the five arithmetic operators: on int64 when
// both are ints (wrapping on overflow), on float64 when either is a float,
// % on ints only.
func arith(op query.BinaryOp, l, r event.Value) (event.Value, status) {
	if l.Kind() == event.KindInt && r.Kind() == event.KindInt {
		li, _ := l.AsInt()
		ri, _ := r.AsInt()
		switch op {
		case query.OpAdd:
			return event.Int(li + ri), stOK
		case query.OpSub:
			return event.Int(li - ri), stOK
		case query.OpMul:
			return event.Int(li * ri), stOK
		}
		if ri == 0 {
			return event.Value{}, stDivZero
		}
		if op == query.OpDiv {
			return event.Int(li / ri), stOK
		}
		return event.Int(li % ri), stOK
	}
	lf, lnum := l.AsFloat()
	rf, rnum := r.AsFloat()
	if !lnum || !rnum {
		return event.Value{}, stArithType
	}
	switch op {
	case query.OpAdd:
		return event.Float(lf + rf), stOK
	case query.OpSub:
		return event.Float(lf - rf), stOK
	case query.OpMul:
		return event.Float(lf * rf), stOK
	case query.OpDiv:
		if rf == 0 {
			return event.Value{}, stDivZero
		}
		return event.Float(lf / rf), stOK
	}
	return event.Value{}, stModType
}

// compare is opCmp's verdict: two ints on int64, two floats on float64, an
// int against a float as float64 (so a NaN is unordered and unequal to
// everything), strings by byte order, bools false before true; = and !=
// accept any pair of kinds, the ordered four do not.
func compare(op query.BinaryOp, l, r event.Value) (bool, status) {
	lk, rk := l.Kind(), r.Kind()
	if lk == event.KindInt && rk == event.KindInt {
		li, _ := l.AsInt()
		ri, _ := r.AsInt()
		return ordered(op, li, ri), stOK
	}
	lf, lnum := l.AsFloat()
	rf, rnum := r.AsFloat()
	switch {
	case lnum && rnum:
		return ordered(op, lf, rf), stOK
	case op == query.OpEq:
		return l.Equal(r), stOK
	case op == query.OpNeq:
		return !l.Equal(r), stOK
	case lk == event.KindString && rk == event.KindString:
		ls, _ := l.AsString()
		rs, _ := r.AsString()
		return ordered(op, ls, rs), stOK
	case lk == event.KindBool && rk == event.KindBool:
		lb, _ := l.AsBool()
		rb, _ := r.AsBool()
		return ordered(op, rank(lb), rank(rb)), stOK
	}
	return false, stIncomparable
}

func ordered[T cmp.Ordered](op query.BinaryOp, a, b T) bool {
	switch op {
	case query.OpEq:
		return a == b
	case query.OpNeq:
		return a != b
	case query.OpLt:
		return a < b
	case query.OpLte:
		return a <= b
	case query.OpGt:
		return a > b
	default: // OpGte
		return a >= b
	}
}

// rank orders the bools: false before true.
func rank(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
