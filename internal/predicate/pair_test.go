package predicate

import (
	"errors"
	"math"
	"testing"

	"oostream/internal/event"
	"oostream/internal/query"
)

var comparisons = []query.BinaryOp{query.OpEq, query.OpNeq, query.OpLt, query.OpLte, query.OpGt, query.OpGte}

// pairSide builds one side of a pair expression over variable v: attribute
// x or ts, plus or minus an int or a float literal, or bare.
func pairSide(v string, ts bool, offset uint8, ki int64, kf float64) query.Expr {
	attr := "x"
	if ts {
		attr = TSAttr
	}
	var e query.Expr = &query.AttrRef{Var: v, Attr: attr}
	op := query.OpAdd
	if offset&4 != 0 {
		op = query.OpSub
	}
	switch offset & 3 {
	case 1:
		e = &query.BinaryExpr{Op: op, Left: e, Right: &query.Literal{Val: event.Int(ki)}}
	case 2:
		e = &query.BinaryExpr{Op: op, Left: e, Right: &query.Literal{Val: event.Float(kf)}}
	}
	return e
}

// pairValue is attribute x of an event: missing, an int, a float, a
// string or a bool. A payload ts shadows the timestamp the same way.
func pairValue(kind uint8, i int64, f float64, s string) (event.Value, bool) {
	switch kind % 5 {
	case 1:
		return event.Int(i), true
	case 2:
		return event.Float(f), true
	case 3:
		return event.Str(s), true
	case 4:
		return event.Bool(i%2 == 0), true
	}
	return event.Value{}, false
}

// FuzzPairMatchesProgram: for every comparison between an attribute of one
// slot and one of another, each bare or offset by an int or a float
// literal, over ints, floats (NaN and the infinities among them), strings,
// bools, missing attributes and the ts pseudo-attribute, loading each side
// and comparing the loaded sides gives EvalBool's verdict and the same
// error text. A bound of the one candidate side that excludes it against
// its partner only ever excludes a comparison that fails without error.
func FuzzPairMatchesProgram(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(0), uint8(1), uint8(1), int64(5), int64(9), 0.0, 0.0, "", int64(3), 0.0, int64(100), int64(200))
	f.Add(uint8(4), uint8(1), uint8(1), uint8(2), uint8(1), int64(-1), int64(7), math.NaN(), 2.5, "x", int64(0), -0.5, int64(0), int64(1))
	f.Add(uint8(3), uint8(0x16), uint8(2), uint8(0), uint8(2), int64(math.MaxInt64), int64(math.MinInt64), math.Inf(1), math.Inf(-1), "", int64(1), 1.5, int64(-5), int64(5))
	f.Add(uint8(5), uint8(0xaa), uint8(4), uint8(3), uint8(3), int64(0), int64(0), 0.0, 0.0, "hi", int64(2), 0.0, int64(7), int64(7))
	f.Add(uint8(1), uint8(0xc1), uint8(6), uint8(4), uint8(2), int64(2), int64(3), 0.0, math.NaN(), "", int64(1), 0.25, int64(0), int64(0))
	f.Add(uint8(0), uint8(0x87), uint8(7), uint8(1), uint8(0), int64(4), int64(4), 0.0, 0.0, "", int64(0), 0.0, int64(4), int64(4))
	f.Fuzz(func(t *testing.T, op, shape, flags, lKind, rKind uint8, li, ri int64, lf, rf float64, s string, ki int64, kf float64, ta, tb int64) {
		// shape: bits 0 and 1 put ts for x on the left and the right, bits
		// 2-4 and 5-7 are the offsets; flags: bit 0 swaps the slots, bits 1
		// and 2 give a and b a payload ts.
		lv, rv := "a", "b"
		if flags&1 != 0 {
			lv, rv = rv, lv
		}
		e := &query.BinaryExpr{
			Op:    comparisons[int(op)%len(comparisons)],
			Left:  pairSide(lv, shape&1 != 0, shape>>2&7, ki, kf),
			Right: pairSide(rv, shape&2 != 0, shape>>5&7, -ki, -kf),
		}
		c, err := Compile(e, twoSlots)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		p := c.Pair()
		if p == nil {
			t.Fatalf("%s is not a pair", e)
		}
		attrs := [2]event.Attrs{{}, {}}
		for i, v := range [2]struct {
			kind uint8
			i    int64
			f    float64
		}{{lKind, li, lf}, {rKind, ri, rf}} {
			if x, ok := pairValue(v.kind, v.i, v.f, s); ok {
				attrs[i]["x"] = x
				if flags&(2<<i) != 0 {
					attrs[i][TSAttr] = x
				}
			}
		}
		binding := []event.Event{event.New("A", event.Time(ta), attrs[0]), event.New("B", event.Time(tb), attrs[1])}
		want, wantErr := c.EvalBool(binding)

		l := p.Load(0, &binding[p.Slot(0)])
		r := p.Load(1, &binding[p.Slot(1)])
		got, gotErr := p.Compare(&l, &r)
		if got != want || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s under %v: pair %v, %v; program %v, %v", e, binding, got, gotErr, want, wantErr)
		}
		if wantErr != nil && (gotErr.Error() != wantErr.Error() || sentinelOf(gotErr) != sentinelOf(wantErr)) {
			t.Fatalf("%s under %v: pair error %q, program %q", e, binding, gotErr, wantErr)
		}
		for cand, side := range []*Side{&l, &r} {
			partner := &r
			if cand == 1 {
				partner = &l
			}
			b := p.Fold(Bound{}, cand, side)
			if p.Excludes(&b, cand, partner) && (want || wantErr != nil) {
				t.Fatalf("%s under %v: side %d's bound excludes a comparison that gives %v, %v", e, binding, cand, want, wantErr)
			}
		}
	})
}

// TestCountedPairCountsCompares: a counted predicate keeps its pair form,
// and the pair counts each comparison, as the program counts each run.
func TestCountedPairCountsCompares(t *testing.T) {
	var n uint64
	c := compileSrc(t, "b.price < a.price - 3").Counted(&n)
	p := c.Pair()
	if p == nil {
		t.Fatal("a counted pair lost its pair form")
	}
	bind := binding(event.Attrs{"price": event.Int(10)}, event.Attrs{"price": event.Int(5)})
	l, r := p.Load(0, &bind[p.Slot(0)]), p.Load(1, &bind[p.Slot(1)])
	for i := 0; i < 3; i++ {
		if holds, err := p.Compare(&l, &r); !holds || err != nil {
			t.Fatalf("Compare = %v, %v; want true", holds, err)
		}
	}
	if _, err := c.EvalBool(bind); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("counted %d, want 4: three compares and one run", n)
	}
	for _, src := range []string{"a.x = 1", "a.x + b.y < 3", "a.x < b.y AND a.y < b.x", "a.x < 3 + b.y"} {
		if compileSrc(t, src).Pair() != nil {
			t.Errorf("%s has a pair form", src)
		}
	}
	missing := p.Load(0, &event.Event{Type: "B"})
	if holds, err := p.Compare(&missing, &r); holds || !errors.Is(err, ErrMissingAttr) {
		t.Errorf("Compare on a side without the attribute = %v, %v; want false, %v", holds, err, ErrMissingAttr)
	}
}
