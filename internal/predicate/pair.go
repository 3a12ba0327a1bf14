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
	oper                  query.BinaryOp
	sides                 [2]operand
	count, loads, untyped *uint64
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
	return &Pair{oper: in.oper, sides: [2]operand{in.a, in.b}, count: c.count, loads: c.loads, untyped: c.untyped}
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
// pattern), or the same failure, whichever reference each error quotes
// (equal operands of two slots, Operand.Equal).
func (s Side) Same(t Side) bool {
	if s.err == nil || t.err == nil {
		return s.err == t.err && s.v == t.v
	}
	a, b := *s.err, *t.err
	a.ref, a.slot, b.ref, b.slot = "", 0, "", 0
	return a == b && s.v == t.v
}

// Operand is one side of a pair, as a column of loaded sides holds it.
type Operand struct {
	Pair *Pair
	Side int
}

// Load reads the operand from e, the event bound to its slot.
func (o Operand) Load(e *event.Event) Side { return o.Pair.Load(o.Side, e) }

// Equal reports whether o and q load the same value from every event: the
// same attribute, the same absent-ts rule and the same offset, whatever
// their slots. A load that fails fails for both, though the errors quote
// each its own reference; construction only counts them.
func (o Operand) Equal(q Operand) bool {
	a, b := &o.Pair.sides[o.Side], &q.Pair.sides[q.Side]
	return a.attr == b.attr && a.ts == b.ts && a.offset == b.offset && a.val == b.val
}

// Compare is the program's verdict on the binding the two sides were loaded
// from: the left side's error first, then the right's, then opCmp's. A
// counted pair counts each call. It defines every verdict and error of a
// pair; Filter's float loop gives what it gives.
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

// Filter appends to pass the index of each candidate, in order, whose side
// i, read from sides, holds against partner, the other side: Compare's
// verdict, counted as Compare counts, with each error handed to fail. The
// candidates are list's indices or, when list is nil, lo up to hi; pass may
// share list's array, as it is written behind the read. When partner and
// every candidate are floats loaded without error the run is compared in a
// float64 loop; any other run goes through Compare, one candidate at a time
// (UntypedCounted).
func (p *Pair) Filter(i int, partner *Side, sides []Side, list []int32, lo, hi int, pass []int32, fail func(error)) []int32 {
	n := span(list, lo, hi)
	if partner.float() && floats(sides, list, lo, n) {
		if p.count != nil {
			*p.count += uint64(n)
		}
		op := p.oper
		if i == 1 {
			op = flip(op)
		}
		return keep(op, partner.num(), sides, list, lo, n, pass)
	}
	for j := range n {
		k := index(list, lo, j)
		l, r := partner, &sides[k]
		if i == 0 {
			l, r = r, l
		}
		if p.untyped != nil {
			*p.untyped++
		}
		holds, err := p.Compare(l, r)
		if err != nil {
			fail(err)
		}
		if holds {
			pass = append(pass, int32(k))
		}
	}
	return pass
}

// span is the number of candidates in list or, when list is nil, from lo
// up to hi.
func span(list []int32, lo, hi int) int {
	if list != nil {
		return len(list)
	}
	return hi - lo
}

// index is the index of the j-th candidate of list or, when list is nil,
// of those from lo.
func index(list []int32, lo, j int) int {
	if list != nil {
		return int(list[j])
	}
	return lo + j
}

// float reports whether s is a float loaded without error.
func (s *Side) float() bool { return s.err == nil && s.v.Kind() == event.KindFloat }

// num is s's value as a float64.
func (s *Side) num() float64 {
	f, _ := s.v.AsFloat()
	return f
}

// floats reports whether each of the n candidates from list or lo is a
// float loaded without error.
func floats(sides []Side, list []int32, lo, n int) bool {
	for j := range n {
		if !sides[index(list, lo, j)].float() {
			return false
		}
	}
	return true
}

// flip is op with its operands swapped: x op y is y flip(op) x.
func flip(op query.BinaryOp) query.BinaryOp {
	switch op {
	case query.OpLt:
		return query.OpGt
	case query.OpLte:
		return query.OpGte
	case query.OpGt:
		return query.OpLt
	case query.OpGte:
		return query.OpLte
	}
	return op
}

// keep appends to pass the index of each of the n candidates from list or
// lo whose float c gives c op x: one loop per operator.
func keep(op query.BinaryOp, x float64, sides []Side, list []int32, lo, n int, pass []int32) []int32 {
	switch op {
	case query.OpEq:
		for j := range n {
			if k := index(list, lo, j); sides[k].num() == x {
				pass = append(pass, int32(k))
			}
		}
	case query.OpNeq:
		for j := range n {
			if k := index(list, lo, j); sides[k].num() != x {
				pass = append(pass, int32(k))
			}
		}
	case query.OpLt:
		for j := range n {
			if k := index(list, lo, j); sides[k].num() < x {
				pass = append(pass, int32(k))
			}
		}
	case query.OpLte:
		for j := range n {
			if k := index(list, lo, j); sides[k].num() <= x {
				pass = append(pass, int32(k))
			}
		}
	case query.OpGt:
		for j := range n {
			if k := index(list, lo, j); sides[k].num() > x {
				pass = append(pass, int32(k))
			}
		}
	default: // OpGte
		for j := range n {
			if k := index(list, lo, j); sides[k].num() >= x {
				pass = append(pass, int32(k))
			}
		}
	}
	return pass
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

// fold returns b widened by s, a candidate's side i.
func (p *Pair) fold(b Bound, i int, s *Side) Bound {
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

// Folds sets the bounds of the candidates a walk over them, of side i, can
// visit from each entry; the candidates are list's indices or, when list is
// nil, lo up to hi. bounds[j] is the fold of the candidates before the j-th
// when the walk goes down (an entry at j visits those before it) and of the
// j-th and after when it goes up; bounds has one entry more than there are
// candidates. A run of floats loaded without error folds in a float64 loop;
// any other run through fold, one candidate at a time (UntypedCounted).
func (p *Pair) Folds(i int, sides []Side, list []int32, lo, hi int, up bool, bounds []Bound) {
	n := span(list, lo, hi)
	if floats(sides, list, lo, n) {
		foldFloats(p.rising(i), sides, list, lo, n, up, bounds)
		return
	}
	if p.untyped != nil {
		*p.untyped += uint64(n)
	}
	if up {
		bounds[n] = Bound{}
		for j := n - 1; j >= 0; j-- {
			bounds[j] = p.fold(bounds[j+1], i, &sides[index(list, lo, j)])
		}
		return
	}
	bounds[0] = Bound{}
	for j := range n {
		bounds[j+1] = p.fold(bounds[j], i, &sides[index(list, lo, j)])
	}
}

// foldFloats is Folds over n floats: the best so far is replaced by a
// larger candidate when rising, else by one no larger, and a NaN never
// becomes it, as fold has it.
func foldFloats(rising bool, sides []Side, list []int32, lo, n int, up bool, bounds []Bound) {
	j, end, step, at := 0, n, 1, 1
	if up {
		j, end, step, at = n-1, -1, -1, 0
	}
	bounds[j+1-at] = Bound{}
	var b Bound
	var best float64
	for ; j != end; j += step {
		c := sides[index(list, lo, j)].num()
		var take bool
		switch {
		case b.kind == event.KindInvalid:
			take = c == c // not a NaN
		case rising:
			take = c > best
		default:
			take = c <= best
		}
		if take {
			best = c
			b = Bound{kind: event.KindFloat, bits: math.Float64bits(c)}
		}
		bounds[j+at] = b
	}
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
