package predicate

import (
	"math"

	"oostream/internal/event"
	"oostream/internal/query"
)

// Pair is a predicate that compiles to one comparison between an attribute
// operand of one slot and one of another, each optionally plus or minus a
// numeric literal: b.price < a.price - 3, c.ts >= a.ts. A caller that binds
// the two slots at different times loads each side once per event (Load)
// and compares loaded sides (Compare), instead of running the program once
// per binding; the verdict and the error are the program's.
type Pair struct {
	oper         query.BinaryOp
	sides        [2]operand
	count, loads *uint64
}

// Side is one side of a pair loaded from one event: its value, or the error
// the program raises when it reads that side.
type Side struct {
	v   event.Value
	err *evalError
}

// Pair returns c's pair form, or nil when c is not one comparison between
// attributes of two slots.
func (c *Compiled) Pair() *Pair {
	if len(c.code) != 1 {
		return nil
	}
	in := &c.code[0]
	if in.op != opCmp || in.pops != 0 || in.a.mode != attribute || in.b.mode != attribute || in.a.slot == in.b.slot {
		return nil
	}
	return &Pair{oper: in.oper, sides: [2]operand{in.a, in.b}, count: c.count, loads: c.loads}
}

// Slot returns the slot side i reads: 0 the left side, 1 the right.
func (p *Pair) Slot(i int) int { return p.sides[i].slot }

// Ordered reports whether the comparison is <, <=, > or >=, the operators a
// Bound can exclude candidates of.
func (p *Pair) Ordered() bool { return p.oper != query.OpEq && p.oper != query.OpNeq }

// Load reads side i from e, the event bound to its slot, as the program
// reads it: the offset applied, the timestamp for an absent ts.
func (p *Pair) Load(i int, e *event.Event) Side {
	if p.loads != nil {
		*p.loads++
	}
	o := &p.sides[i]
	v, st := o.load(e)
	if st != stOK {
		return Side{v: v, err: o.fail(st, v, e)}
	}
	return Side{v: v}
}

// Same reports whether s and t are one load: equal values (floats by bit
// pattern), or equal errors.
func (s Side) Same(t Side) bool {
	if s.err == nil || t.err == nil {
		return s.err == t.err && s.v == t.v
	}
	return *s.err == *t.err && s.v == t.v
}

// Operand is one side of a pair, as a column of loaded sides holds it.
type Operand struct {
	Pair *Pair
	Side int
}

// Load reads the operand from e, the event bound to its slot.
func (o Operand) Load(e *event.Event) Side { return o.Pair.Load(o.Side, e) }

// Compare is the program's verdict on the binding the two sides were loaded
// from: the left side's error first, then the right's, then opCmp's. A
// counted pair counts each call.
func (p *Pair) Compare(l, r *Side) (bool, error) {
	if p.count != nil {
		*p.count++
	}
	if l.err != nil {
		return false, l.err
	}
	if r.err != nil {
		return false, r.err
	}
	holds, st := compare(p.oper, l.v, r.v)
	if st != stOK {
		return false, &evalError{st: st, op: p.oper, lk: l.v.Kind(), rk: r.v.Kind()}
	}
	return holds, nil
}

// Bound is what a run of candidate sides offers an ordered comparison: the
// candidate most likely to pass, when every side folded in loaded without
// error as a number of one kind. A NaN passes no ordered comparison, so it
// takes no part. The best is a number, so it is kept as its kind and bits,
// and a Bound holds no pointer. The zero Bound is the empty run's.
type Bound struct {
	kind  event.Kind
	bits  uint64
	mixed bool
}

// best is the bound's best candidate side; invalid for an empty run.
func (b *Bound) best() event.Value {
	switch b.kind {
	case event.KindInt:
		return event.Int(int64(b.bits))
	case event.KindFloat:
		return event.Float(math.Float64frombits(b.bits))
	}
	return event.Value{}
}

// Fold returns b widened by s, a candidate's side i.
func (p *Pair) Fold(b Bound, i int, s *Side) Bound {
	k := s.v.Kind()
	switch {
	case b.mixed:
	case s.err != nil || !s.v.IsNumeric() || (b.kind != event.KindInvalid && b.kind != k):
		b.mixed = true
	case k == event.KindFloat && isNaN(s.v):
	case b.kind == event.KindInvalid || p.rising(i) == above(s.v, b.best()):
		b.kind = k
		if n, ok := s.v.AsInt(); ok {
			b.bits = uint64(n)
		} else {
			f, _ := s.v.AsFloat()
			b.bits = math.Float64bits(f)
		}
	}
	return b
}

// Quiet reports that the comparison is ordered, b is of one kind and free
// of errors, and partner, the other side, is a number: then no candidate
// folded into b raises an error against partner.
func (p *Pair) Quiet(b *Bound, partner *Side) bool {
	return p.Ordered() && !b.mixed && partner.err == nil && partner.v.IsNumeric()
}

// Excludes reports that no candidate folded into b, a run of side i, passes
// against partner: the pair is Quiet and partner fails against b's best.
// Converting int64 to float64 keeps order, so a candidate no better than
// the best fails too, whatever kinds meet.
func (p *Pair) Excludes(b *Bound, i int, partner *Side) bool {
	if !p.Quiet(b, partner) {
		return false
	}
	if b.kind == event.KindInvalid {
		return true
	}
	l, r := partner.v, b.best()
	if i == 0 {
		l, r = r, l
	}
	holds, _ := compare(p.oper, l, r)
	return !holds
}

// rising reports whether a larger side i passes more readily: a candidate
// on the right of < or <=, or on the left of > or >=.
func (p *Pair) rising(i int) bool {
	return (i == 1) == (p.oper == query.OpLt || p.oper == query.OpLte)
}

// above reports x > y for two numbers of one kind.
func above(x, y event.Value) bool {
	holds, _ := compare(query.OpGt, x, y)
	return holds
}

func isNaN(v event.Value) bool {
	f, _ := v.AsFloat()
	return math.IsNaN(f)
}
