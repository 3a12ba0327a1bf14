package event

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	tests := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Int(42), KindInt, "42"},
		{Float(2.5), KindFloat, "2.5"},
		{Str("hi"), KindString, `"hi"`},
		{Bool(true), KindBool, "true"},
		{Value{}, KindInvalid, "<invalid>"},
	}
	for _, tt := range tests {
		if tt.v.Kind() != tt.kind {
			t.Errorf("%v: kind = %v, want %v", tt.v, tt.v.Kind(), tt.kind)
		}
		if got := tt.v.String(); got != tt.str {
			t.Errorf("String() = %q, want %q", got, tt.str)
		}
		if tt.v.Valid() != (tt.kind != KindInvalid) {
			t.Errorf("%v: Valid() mismatch", tt.v)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if v, ok := Int(3).AsInt(); !ok || v != 3 {
		t.Error("AsInt on Int failed")
	}
	if _, ok := Str("x").AsInt(); ok {
		t.Error("AsInt on Str should fail")
	}
	if v, ok := Int(3).AsFloat(); !ok || v != 3.0 {
		t.Error("AsFloat should convert ints")
	}
	if v, ok := Float(2.5).AsFloat(); !ok || v != 2.5 {
		t.Error("AsFloat on Float failed")
	}
	if _, ok := Bool(true).AsFloat(); ok {
		t.Error("AsFloat on Bool should fail")
	}
	if v, ok := Str("s").AsString(); !ok || v != "s" {
		t.Error("AsString failed")
	}
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Error("AsBool failed")
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{Int(3), Int(3), true},
		{Int(3), Int(4), false},
		{Int(3), Float(3.0), true},
		{Float(3.0), Int(3), true},
		{Float(2.5), Float(2.5), true},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Str("3"), Int(3), false},
		{Bool(true), Int(1), false},
		{Value{}, Value{}, false},
	}
	for _, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b    Value
		want    int
		wantErr bool
	}{
		{Int(1), Int(2), -1, false},
		{Int(2), Int(2), 0, false},
		{Int(3), Int(2), 1, false},
		{Int(1), Float(1.5), -1, false},
		{Float(2.5), Int(2), 1, false},
		{Str("a"), Str("b"), -1, false},
		{Str("b"), Str("b"), 0, false},
		{Str("c"), Str("b"), 1, false},
		{Bool(false), Bool(true), -1, false},
		{Bool(true), Bool(true), 0, false},
		{Bool(true), Bool(false), 1, false},
		{Str("a"), Int(1), 0, true},
		{Bool(true), Float(1), 0, true},
		{Value{}, Value{}, 0, true},
	}
	for _, tt := range tests {
		got, err := tt.a.Compare(tt.b)
		if tt.wantErr {
			if !errors.Is(err, ErrIncomparable) {
				t.Errorf("%v.Compare(%v): want ErrIncomparable, got %v", tt.a, tt.b, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v.Compare(%v): unexpected error %v", tt.a, tt.b, err)
			continue
		}
		if got != tt.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := Int(a).Compare(Int(b))
		y, err2 := Int(b).Compare(Int(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareEqualConsistencyProperty(t *testing.T) {
	f := func(a int64, bf float64) bool {
		av, bv := Int(a), Float(bf)
		c, err := av.Compare(bv)
		if err != nil {
			return false
		}
		return (c == 0) == av.Equal(bv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestValueSize pins the layout: the predicate evaluator returns
// (Value, error) from every closure node, and a field per kind (48 bytes)
// made the construction walk 1.7× slower (EXPERIMENTS.md E25).
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestValueSharedWord: the scalar kinds share one payload word, so an
// accessor for the wrong kind must not leak another kind's bits, and ==
// (what a map key uses) sees floats by bit pattern.
func TestValueSharedWord(t *testing.T) {
	for _, v := range []Value{Float(2.5), Bool(true), Str("7"), {}} {
		if i, ok := v.AsInt(); ok || i != 0 {
			t.Errorf("%v.AsInt() = %d, %v, want 0, false", v, i, ok)
		}
	}
	for _, v := range []Value{Int(1), Float(1), Str("true"), {}} {
		if b, ok := v.AsBool(); ok || b {
			t.Errorf("%v.AsBool() = %v, %v, want false, false", v, b, ok)
		}
	}
	if Int(1) == Bool(true) || Int(0) == Float(0) {
		t.Error("values of different kinds compare == on equal payload bits")
	}
	negZero := Float(math.Copysign(0, -1))
	if negZero == Float(0) || !negZero.Equal(Float(0)) || negZero.MapKey() != Float(0).MapKey() {
		t.Error("-0: want != as bits, Equal as numbers, one MapKey")
	}
	nan := Float(math.NaN())
	if nan.Equal(nan) || nan != nan.MapKey() {
		t.Error("NaN: want Equal false and MapKey leaving it alone (plan.KeyOf refuses it as a key)")
	}
	if c, err := Bool(false).Compare(Bool(true)); err != nil || c != -1 {
		t.Errorf("false.Compare(true) = %d, %v, want -1", c, err)
	}
}

var sinkCmp int

// BenchmarkValueCompare: the comparison under every `<`/`>` predicate, on
// the kind pairs the workloads produce.
func BenchmarkValueCompare(b *testing.B) {
	for _, bc := range []struct {
		name string
		x, y Value
	}{
		{"float-float", Float(101.25), Float(98.5)},
		{"int-int", Int(7), Int(9)},
		{"int-float", Int(7), Float(7.5)},
		{"string-string", Str("shelf-17"), Str("shelf-18")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := bc.x.Compare(bc.y)
				if err != nil {
					b.Fatal(err)
				}
				sinkCmp += c
			}
		})
	}
}
