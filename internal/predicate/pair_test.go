package predicate

import (
	"errors"
	"math"
	"slices"
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
			b := p.fold(Bound{}, cand, side)
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

// kernelValues are the values FuzzPairKernels draws a side from, by class:
// the int64 ends and the integers next to 2^53, where a float64 can no
// longer tell them apart, and the floats a typed loop could mistake: NaN,
// the zeros, the infinities and the subnormals.
var kernelValues = [...][]event.Value{
	{event.Int(math.MinInt64), event.Int(math.MaxInt64), event.Int(1<<53 + 1), event.Int(-(1<<53 + 1)), event.Int(1 << 53), event.Int(0), event.Int(-1), event.Int(1)},
	{event.Float(math.NaN()), event.Float(0), event.Float(math.Copysign(0, -1)), event.Float(math.Inf(1)), event.Float(math.Inf(-1)),
		event.Float(5e-324), event.Float(-5e-324), event.Float(math.SmallestNonzeroFloat64 * 3), event.Float(1 << 53), event.Float(1.5), event.Float(-2.5), event.Float(math.MaxFloat64)},
	{event.Str(""), event.Str("a"), event.Str("b")},
	{event.Bool(false), event.Bool(true)},
}

// kernelSide is the event one byte of FuzzPairKernels' input gives a side:
// without x (class 0), or with x drawn from kernelValues or a small int or
// float, so that runs hold ties and near values.
func kernelSide(b byte) event.Event {
	e := event.Event{Type: "T", TS: 7}
	var v event.Value
	switch n := int(b >> 3); b & 7 {
	case 0:
		return e
	case 1, 2, 3, 4:
		class := kernelValues[b&7-1]
		v = class[n%len(class)]
	case 5:
		v = event.Int(int64(n) - 16)
	default:
		v = event.Float(float64(n)/4 - 8)
	}
	e.Attrs = event.AttrList{{Name: event.Intern("x"), Value: v}}
	return e
}

// FuzzPairKernels: the run kernels, Pair.Filter and Pair.Folds, give what
// Compare and fold give one candidate at a time over every run an operator,
// a candidate side and a partner draw: ints, floats, strings, bools,
// missing attributes and mixed kinds, as a range or as a list of indices,
// filtered into a fresh list or into the list's own array. The same pass
// list, the same Counted increments, the same errors in the same order, the
// same bounds going down and going up; and the float loops run exactly when
// the run (and, for Filter, the partner) is floats loaded without error.
func FuzzPairKernels(f *testing.F) {
	// One row per case: a float run with NaN and both zeros; the zeros
	// tied, where a fold keeps the later best; an int run at
	// the int64 ends and ±(2^53+1) against a partner of 2^53; a run with a
	// missing attribute; strings; bools; ints and floats mixed; a partner
	// that errs; an empty run; a list of indices filtered in place; and,
	// for each operator, a float run with a tie against the partner.
	f.Add(uint8(2), uint8(1), byte(0x02), []byte{0x02, 0x0a, 0x12, 0x1a, 0x22, 0x2a, 0x06, 0x36}, uint8(0), uint64(0), uint8(0), uint8(8))
	f.Add(uint8(2), uint8(0), byte(0x06), []byte{0x0a, 0x12, 0x0a, 0x12}, uint8(0), uint64(0), uint8(0), uint8(4))
	f.Add(uint8(3), uint8(0), byte(0x21), []byte{0x01, 0x09, 0x11, 0x19, 0x21, 0x29, 0x31, 0x39}, uint8(0), uint64(0), uint8(0), uint8(8))
	f.Add(uint8(4), uint8(1), byte(0x4e), []byte{0x4e, 0x00, 0x56, 0x86}, uint8(0), uint64(0), uint8(0), uint8(4))
	f.Add(uint8(0), uint8(0), byte(0x0b), []byte{0x03, 0x0b, 0x13, 0x03}, uint8(0), uint64(0), uint8(1), uint8(3))
	f.Add(uint8(1), uint8(1), byte(0x04), []byte{0x04, 0x0c, 0x04}, uint8(0), uint64(0), uint8(0), uint8(3))
	f.Add(uint8(5), uint8(0), byte(0x45), []byte{0x45, 0x46, 0x4d, 0x0e, 0x01}, uint8(0), uint64(0), uint8(0), uint8(5))
	f.Add(uint8(2), uint8(0), byte(0x00), []byte{0x46, 0x4e, 0x56}, uint8(0), uint64(0), uint8(0), uint8(3))
	f.Add(uint8(3), uint8(1), byte(0x46), []byte{}, uint8(0), uint64(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(0), byte(0x66), []byte{0x46, 0x4e, 0x56, 0x5e, 0x66, 0x6e, 0x76, 0x7e}, uint8(1), uint64(0xb5), uint8(0), uint8(0))
	for op := range uint8(6) {
		f.Add(op, op%2, byte(0x46), []byte{0x3e, 0x46, 0x4e}, uint8(0), uint64(0), uint8(0), uint8(3))
	}
	f.Fuzz(func(t *testing.T, op, cand uint8, partnerByte byte, data []byte, shape uint8, mask uint64, lo, hi uint8) {
		oper := comparisons[int(op)%len(comparisons)]
		var count, untyped uint64
		c, err := Compile(&query.BinaryExpr{Op: oper, Left: &query.AttrRef{Var: "a", Attr: "x"}, Right: &query.AttrRef{Var: "b", Attr: "x"}}, twoSlots)
		if err != nil {
			t.Fatal(err)
		}
		ref, p := c.Pair(), c.Counted(&count).UntypedCounted(&untyped).Pair()
		i := int(cand % 2)
		pe := kernelSide(partnerByte)
		partner := p.Load(1-i, &pe)
		sides := make([]Side, len(data))
		for k, b := range data {
			e := kernelSide(b)
			sides[k] = p.Load(i, &e)
		}
		var list []int32
		first := int(lo) % (len(data) + 1)
		last := first + int(hi)%(len(data)-first+1)
		if shape&1 != 0 {
			list = []int32{}
			for k := range data {
				if mask>>(k%64)&1 != 0 {
					list = append(list, int32(k))
				}
			}
		}
		n := span(list, first, last)

		// One candidate at a time.
		var want []int32
		var wantErrs []error
		floatRun := true
		for j := range n {
			k := index(list, first, j)
			l, r := &sides[k], &partner
			if i == 1 {
				l, r = r, l
			}
			holds, err := ref.Compare(l, r)
			if holds {
				want = append(want, int32(k))
			}
			if err != nil {
				wantErrs = append(wantErrs, err)
			}
			if s := &sides[k]; s.err != nil || s.v.Kind() != event.KindFloat {
				floatRun = false
			}
		}

		filter := func(pass, list []int32) {
			t.Helper()
			var errs []error
			count, untyped = 0, 0
			got := p.Filter(i, &partner, sides, list, first, last, pass, func(err error) { errs = append(errs, err) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s, side %d against %v: Filter passed %v, Compare %v", oper, i, partner.v, got, want)
			}
			if count != uint64(n) {
				t.Fatalf("Filter counted %d comparisons over %d candidates", count, n)
			}
			typed := floatRun && partner.err == nil && partner.v.Kind() == event.KindFloat
			if typed && untyped != 0 || !typed && untyped != uint64(n) {
				t.Fatalf("float run %v: %d of %d candidates taken one at a time", typed, untyped, n)
			}
			if len(errs) != len(wantErrs) {
				t.Fatalf("Filter raised %d errors, Compare %d", len(errs), len(wantErrs))
			}
			for k := range errs {
				if errs[k].Error() != wantErrs[k].Error() || sentinelOf(errs[k]) != sentinelOf(wantErrs[k]) {
					t.Fatalf("error %d: Filter %q, Compare %q", k, errs[k], wantErrs[k])
				}
			}
		}
		filter(nil, list)
		if list != nil {
			own := slices.Clone(list)
			filter(own[:0], own)
		}

		if !p.Ordered() {
			return
		}
		for _, up := range []bool{false, true} {
			wantBounds := make([]Bound, n+1)
			if up {
				for j := n - 1; j >= 0; j-- {
					wantBounds[j] = ref.fold(wantBounds[j+1], i, &sides[index(list, first, j)])
				}
			} else {
				for j := range n {
					wantBounds[j+1] = ref.fold(wantBounds[j], i, &sides[index(list, first, j)])
				}
			}
			got := make([]Bound, n+1)
			for k := range got {
				got[k] = Bound{kind: event.KindString, mixed: true} // stale entries a fold must overwrite
			}
			untyped = 0
			p.Folds(i, sides, list, first, last, up, got)
			if !slices.Equal(got, wantBounds) {
				t.Fatalf("%s, side %d, up %v: Folds %v, fold %v", oper, i, up, got, wantBounds)
			}
			if floatRun && untyped != 0 || !floatRun && untyped != uint64(n) {
				t.Fatalf("float run %v: Folds took %d of %d candidates one at a time", floatRun, untyped, n)
			}
		}
	})
}
