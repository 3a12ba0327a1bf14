package predicate

import (
	"errors"
	"testing"
	"testing/quick"

	"oostream/internal/event"
	"oostream/internal/query"
)

// twoSlots resolves a->0, b->1.
func twoSlots(name string) (int, bool) {
	switch name {
	case "a":
		return 0, true
	case "b":
		return 1, true
	default:
		return 0, false
	}
}

func compileSrc(t testing.TB, src string) *Compiled {
	t.Helper()
	e, err := query.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c, err := Compile(e, twoSlots)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return c
}

func binding(aAttrs, bAttrs event.Attrs) []event.Event {
	return []event.Event{
		event.New("A", 100, aAttrs),
		event.New("B", 200, bAttrs),
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	bind := binding(
		event.Attrs{"x": event.Int(5), "s": event.Str("hi"), "f": event.Float(2.5), "ok": event.Bool(true)},
		event.Attrs{"x": event.Int(7)},
	)
	tests := []struct {
		src  string
		want bool
	}{
		{"a.x = 5", true},
		{"a.x = 6", false},
		{"a.x != 6", true},
		{"a.x < b.x", true},
		{"a.x <= 5", true},
		{"a.x > b.x", false},
		{"a.x >= 5", true},
		{"a.f = 2.5", true},
		{"a.f > 2", true},
		{"a.x = 5.0", true},
		{"a.s = 'hi'", true},
		{"a.s != 'ho'", true},
		{"a.s < 'hj'", true},
		{"a.ok = TRUE", true},
		{"NOT a.ok", false},
		{"a.x = 5 AND b.x = 7", true},
		{"a.x = 5 AND b.x = 8", false},
		{"a.x = 9 OR b.x = 7", true},
		{"a.x = 9 OR b.x = 8", false},
		{"a.x + 2 = b.x", true},
		{"b.x - a.x = 2", true},
		{"a.x * 2 > b.x", true},
		{"b.x / a.x = 1", true}, // integer division
		{"b.x % a.x = 2", true},
		{"-a.x = -5", true},
		{"-a.f < 0", true},
		{"a.f * 2 = 5.0", true},
		{"a.x / 2.0 = 2.5", true},
		{"a.ts = 100", true}, // pseudo-attribute
		{"b.ts - a.ts = 100", true},
	}
	for _, tt := range tests {
		c := compileSrc(t, tt.src)
		got, err := c.EvalBool(bind)
		if err != nil {
			t.Errorf("%q: %v", tt.src, err)
			continue
		}
		if got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	bind := binding(
		event.Attrs{"x": event.Int(5), "s": event.Str("hi"), "z": event.Int(0)},
		event.Attrs{"x": event.Int(7)},
	)
	tests := []struct {
		src     string
		wantErr error
	}{
		{"a.nope = 1", ErrMissingAttr},
		{"a.s + 1 = 2", ErrType},
		{"a.s < 1", event.ErrIncomparable},
		{"NOT a.x", ErrType},
		{"-a.s = 1", ErrType},
		{"a.x AND a.x = 5", ErrType},
		{"a.x = 5 AND a.x", ErrType},
		{"a.x / a.z = 1", ErrDivZero},
		{"a.x % a.z = 1", ErrDivZero},
		{"a.x % 2.0 = 1", ErrType},
	}
	for _, tt := range tests {
		c := compileSrc(t, tt.src)
		_, err := c.EvalBool(bind)
		if err == nil {
			t.Errorf("%q: want error %v, got nil", tt.src, tt.wantErr)
			continue
		}
		if !errors.Is(err, tt.wantErr) {
			t.Errorf("%q: error = %v, want %v", tt.src, err, tt.wantErr)
		}
	}
}

func TestEvalBoolOnNonBool(t *testing.T) {
	c := compileSrc(t, "a.x + 1")
	if _, err := c.EvalBool(binding(event.Attrs{"x": event.Int(1)}, nil)); !errors.Is(err, ErrType) {
		t.Errorf("want ErrType, got %v", err)
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand errors (missing attr) but must not be reached.
	bind := binding(event.Attrs{"x": event.Int(5)}, event.Attrs{})
	c := compileSrc(t, "a.x = 9 AND b.nope = 1")
	got, err := c.EvalBool(bind)
	if err != nil || got {
		t.Errorf("AND short-circuit: got %v, %v", got, err)
	}
	c = compileSrc(t, "a.x = 5 OR b.nope = 1")
	got, err = c.EvalBool(bind)
	if err != nil || !got {
		t.Errorf("OR short-circuit: got %v, %v", got, err)
	}
}

func TestUnboundSlot(t *testing.T) {
	c := compileSrc(t, "b.x = 1")
	_, err := c.EvalBool([]event.Event{event.New("A", 1, nil)})
	if !errors.Is(err, ErrUnboundSlot) {
		t.Errorf("want ErrUnboundSlot, got %v", err)
	}
}

func TestCompileUnknownVar(t *testing.T) {
	e, err := query.ParseExpr("z.x = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(e, twoSlots); err == nil {
		t.Fatal("want compile error for unknown var")
	}
}

func TestRefsAndMask(t *testing.T) {
	c := compileSrc(t, "b.x = 1 AND a.y = 2 AND b.z = 3")
	refs := c.Refs()
	if len(refs) != 2 || refs[0] != 0 || refs[1] != 1 {
		t.Errorf("Refs() = %v", refs)
	}
	if c.Mask() != 0b11 {
		t.Errorf("Mask() = %b", c.Mask())
	}
	c = compileSrc(t, "a.x = 1")
	if c.Mask() != 0b01 || len(c.Refs()) != 1 {
		t.Errorf("single-var: refs=%v mask=%b", c.Refs(), c.Mask())
	}
	c = compileSrc(t, "1 = 1")
	if c.Mask() != 0 || len(c.Refs()) != 0 {
		t.Errorf("constant: refs=%v mask=%b", c.Refs(), c.Mask())
	}
}

func TestTSAttrShadowedByPayload(t *testing.T) {
	// A payload attribute named "ts" wins over the pseudo-attribute.
	bind := []event.Event{event.New("A", 100, event.Attrs{"ts": event.Int(42)})}
	resolve := func(string) (int, bool) { return 0, true }
	e, err := query.ParseExpr("a.ts = 42")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(e, resolve)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.EvalBool(bind)
	if err != nil || !got {
		t.Errorf("payload ts should shadow pseudo-attr: %v, %v", got, err)
	}
}

func TestArithmeticIntFloatProperty(t *testing.T) {
	add := compileSrc(t, "a.x + b.x")
	f := func(x, y int32) bool {
		bind := binding(event.Attrs{"x": event.Int(int64(x))}, event.Attrs{"x": event.Int(int64(y))})
		v, err := add.Eval(bind)
		if err != nil {
			return false
		}
		got, ok := v.AsInt()
		return ok && got == int64(x)+int64(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComparisonTotalityProperty(t *testing.T) {
	lt := compileSrc(t, "a.x < b.x")
	gte := compileSrc(t, "a.x >= b.x")
	f := func(x, y int64) bool {
		bind := binding(event.Attrs{"x": event.Int(x)}, event.Attrs{"x": event.Int(y)})
		a, err1 := lt.EvalBool(bind)
		b, err2 := gte.EvalBool(bind)
		return err1 == nil && err2 == nil && a != b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var sinkBool bool

// BenchmarkEvalBool: one evaluation of the predicate shapes the construction
// walk runs per candidate — the unit EXPERIMENTS.md E25 counts.
func BenchmarkEvalBool(b *testing.B) {
	bind := binding(
		event.Attrs{"sym": event.Int(3), "price": event.Float(101.25)},
		event.Attrs{"sym": event.Int(3), "price": event.Float(98.5)},
	)
	for _, bc := range []struct{ name, src string }{
		{"equality", "a.sym = b.sym"},
		{"comparison", "a.price > b.price"},
		{"arithmetic", "b.price < a.price - 3"},
		{"missing-attr", "b.nope < a.price - 3"},
	} {
		c := compileSrc(b, bc.src)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, _ := c.EvalBool(bind)
				sinkBool = ok
			}
		})
	}
}
