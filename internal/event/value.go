package event

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the dynamic types an attribute value can take.
type Kind int

// Value kinds. KindInvalid is deliberately the zero value so that the zero
// Value is recognizably invalid.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// ErrIncomparable is returned when two values cannot be compared, e.g. a
// string against a number.
var ErrIncomparable = errors.New("values are not comparable")

// Value is a dynamically typed attribute value: one of int64, float64,
// string, or bool. The zero Value is invalid.
//
// The three scalar kinds share the word n — the int64's bits, the float64's
// IEEE-754 bits, 0/1 for a bool — so a Value is three fields and 32 bytes.
// That is the largest struct the compiler keeps in registers (four words,
// at most four fields), and the predicate evaluator hands every operand
// around as a Value: with a field per kind (five fields, 48 bytes) the
// construction walk ran 1.7× slower under the closure tree it had then
// (EXPERIMENTS.md E25) and 1.3× slower under the program it has now
// (E32). As a Go map key or
// under ==, floats therefore compare by bit pattern (+0 and −0 differ, a
// NaN equals itself); Equal, Compare and MapKey keep numeric semantics, and
// plan.KeyOf keeps NaN out of keys.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// Str wraps a string.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool wraps a bool.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// int, float and bool read n as the payload of the kind the caller checked.
func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }
func (v Value) bool() bool     { return v.n != 0 }

// Kind returns the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// Valid reports whether the value holds data.
func (v Value) Valid() bool { return v.kind != KindInvalid }

// AsInt returns the int64 payload; ok is false if the kind is not int.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.int(), true
}

// AsFloat returns the value as a float64, converting ints; ok is false for
// non-numeric kinds.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.float(), true
	case KindInt:
		return float64(v.int()), true
	default:
		return 0, false
	}
}

// AsString returns the string payload; ok is false if the kind is not string.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsBool returns the bool payload; ok is false if the kind is not bool.
func (v Value) AsBool() (bool, bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.bool(), true
}

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display.
func (v Value) String() string {
	var buf [32]byte
	return string(AppendValue(buf[:0], v))
}

// AppendValue appends the text Value.String returns for v to dst.
func AppendValue(dst []byte, v Value) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(dst, v.int(), 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.float(), 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(dst, v.s)
	case KindBool:
		return strconv.AppendBool(dst, v.bool())
	default:
		return append(dst, "<invalid>"...)
	}
}

// MapKey returns a canonical form of the value for use as a Go map key:
// values that compare Equal canonicalize to identical keys. Integral floats
// collapse to ints, so Int(3) and Float(3.0) land in the same key group,
// mirroring Equal's cross-kind semantics. Floats of magnitude >= 2^63 keep
// their float identity (Equal is not a congruence at that precision
// boundary; such keys only ever group with bit-identical floats).
func (v Value) MapKey() Value {
	if v.kind != KindFloat {
		return v
	}
	if f := v.float(); f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
		return Int(int64(f))
	}
	return v
}

// Equal reports deep equality with numeric cross-kind comparison
// (Int(3) equals Float(3.0)).
func (v Value) Equal(o Value) bool {
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.n == o.n
		}
		vf, _ := v.AsFloat()
		of, _ := o.AsFloat()
		return vf == of
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.n == o.n
	default:
		return false
	}
}

// Compare orders two values: -1, 0, or +1. Numeric kinds compare across int
// and float; strings compare lexicographically; bools compare false < true.
// Mixed non-numeric kinds return ErrIncomparable.
func (v Value) Compare(o Value) (int, error) {
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return cmpInt64(v.int(), o.int()), nil
		}
		vf, _ := v.AsFloat()
		of, _ := o.AsFloat()
		return cmpFloat64(vf, of), nil
	}
	if v.kind != o.kind {
		return 0, fmt.Errorf("compare %s with %s: %w", v.kind, o.kind, ErrIncomparable)
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < o.s:
			return -1, nil
		case v.s > o.s:
			return 1, nil
		}
		return 0, nil
	case KindBool:
		return cmpInt64(v.int(), o.int()), nil
	default:
		return 0, fmt.Errorf("compare %s values: %w", v.kind, ErrIncomparable)
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
