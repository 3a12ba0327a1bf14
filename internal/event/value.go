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
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str wraps a string.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool wraps a bool.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind returns the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// Valid reports whether the value holds data.
func (v Value) Valid() bool { return v.kind != KindInvalid }

// AsInt returns the int64 payload; ok is false if the kind is not int.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsFloat returns the value as a float64, converting ints; ok is false for
// non-numeric kinds.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsString returns the string payload; ok is false if the kind is not string.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsBool returns the bool payload; ok is false if the kind is not bool.
func (v Value) AsBool() (bool, bool) { return v.b, v.kind == KindBool }

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
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(dst, v.s)
	case KindBool:
		return strconv.AppendBool(dst, v.b)
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
	if v.kind == KindFloat && v.f == math.Trunc(v.f) &&
		v.f >= math.MinInt64 && v.f < math.MaxInt64 {
		return Value{kind: KindInt, i: int64(v.f)}
	}
	return v
}

// Equal reports deep equality with numeric cross-kind comparison
// (Int(3) equals Float(3.0)).
func (v Value) Equal(o Value) bool {
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.i == o.i
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
		return v.b == o.b
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
			return cmpInt64(v.i, o.i), nil
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
		switch {
		case !v.b && o.b:
			return -1, nil
		case v.b && !o.b:
			return 1, nil
		}
		return 0, nil
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
