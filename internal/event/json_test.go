package event

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestValueJSONRoundTrip(t *testing.T) {
	for _, v := range []Value{Int(-42), Float(2.5), Str("hé\"llo"), Bool(true), Bool(false)} {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Value
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if !back.Equal(v) || back.Kind() != v.Kind() {
			t.Errorf("round trip %v -> %s -> %v", v, raw, back)
		}
	}
}

func TestValueJSONInvalid(t *testing.T) {
	if _, err := json.Marshal(Value{}); err == nil {
		t.Error("invalid value marshaled")
	}
	var v Value
	for _, raw := range []string{`{}`, `{"int":1,"str":"x"}`, `[1]`} {
		if err := json.Unmarshal([]byte(raw), &v); err == nil {
			t.Errorf("unmarshal %s should fail", raw)
		}
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	e := New("TRADE", 123, Attrs{"sym": Int(4), "price": Float(99.5), "flag": Bool(true)})
	e.Seq = 7
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"type":"TRADE"`, `"ts":123`, `"seq":7`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("json %s missing %s", raw, want)
		}
	}
	var back Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Type != e.Type || back.TS != e.TS || back.Seq != e.Seq || len(back.Attrs) != 3 {
		t.Errorf("round trip: %v vs %v", e, back)
	}
	if price, _ := back.Attr("price"); !price.Equal(Float(99.5)) {
		t.Errorf("price = %v", price)
	}
}

func TestEventJSONOmitsEmptyAttrs(t *testing.T) {
	raw, err := json.Marshal(Event{Type: "A", TS: 1, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "attrs") {
		t.Errorf("empty attrs serialized: %s", raw)
	}
}

// refValue is the pointer-union struct Value.MarshalJSON went through
// before the append encoder; the WAL and the checkpoints hold its bytes.
type refValue struct {
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Str   *string  `json:"str,omitempty"`
	Bool  *bool    `json:"bool,omitempty"`
}

func refMarshalValue(v Value) ([]byte, error) {
	var w refValue
	switch v.kind {
	case KindInt:
		i := v.int()
		w.Int = &i
	case KindFloat:
		f := v.float()
		w.Float = &f
	case KindString:
		w.Str = &v.s
	case KindBool:
		b := v.bool()
		w.Bool = &b
	default:
		return nil, fmt.Errorf("cannot marshal %s value", v.kind)
	}
	return json.Marshal(w)
}

// refUnmarshalValue is the old Value.UnmarshalJSON.
func refUnmarshalValue(data []byte) (Value, error) {
	var w refValue
	if err := json.Unmarshal(data, &w); err != nil {
		return Value{}, err
	}
	set := 0
	var v Value
	if w.Int != nil {
		set++
		v = Int(*w.Int)
	}
	if w.Float != nil {
		set++
		v = Float(*w.Float)
	}
	if w.Str != nil {
		set++
		v = Str(*w.Str)
	}
	if w.Bool != nil {
		set++
		v = Bool(*w.Bool)
	}
	if set != 1 {
		return Value{}, fmt.Errorf("value must set exactly one of int/float/str/bool, got %d", set)
	}
	return v, nil
}

// identical compares bit for bit, so -0 and 0 differ: floats sit in a
// Value as their bits.
func identical(a, b Value) bool { return a == b }

func hostileValues() []Value {
	vs := []Value{
		Int(0), Int(math.MinInt64), Int(math.MaxInt64), Bool(true), Bool(false),
		Str(""), Str("plain"), Str("a<b>c&d"), Str("sep \u2028 \u2029"), Str("invalid \xff\xfe utf8 \xe2\x82"),
		Str("\x00\x01\b\f\n\r\t\x1f\x7f"), Str(`"\`), Str("héllo 😀"), Str(strings.Repeat("long ", 5000)),
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.9e-7, 1e-7, 1e20, 1e21, 1.5e300, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125, 1e-9, 1.234e-10} {
		vs = append(vs, Float(f))
	}
	return vs
}

// TestValueJSONKeepsItsBytes: the append encoder writes what the
// pointer-union struct wrote, so WAL records and checkpoints written before
// and after it are the same bytes; and every value reads back bit for bit.
func TestValueJSONKeepsItsBytes(t *testing.T) {
	for _, v := range hostileValues() {
		want, err := refMarshalValue(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		if string(got) != string(want) {
			t.Errorf("marshal %v:\n got %s\nwant %s", v, got, want)
		}
		var back Value
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", got, err)
		}
		if wantBack, _ := refUnmarshalValue(want); !identical(back, wantBack) {
			t.Errorf("round trip %v -> %s -> %v, reference %v", v, got, back, wantBack)
		}
	}
	if _, err := json.Marshal(Value{}); err == nil {
		t.Error("the invalid value marshaled")
	}
	// JSON has no number for these: each is a string under "float", and
	// reads back bit for bit.
	for _, tc := range []struct {
		f    float64
		want string
	}{{math.NaN(), `{"float":"NaN"}`}, {math.Inf(1), `{"float":"+Inf"}`}, {math.Inf(-1), `{"float":"-Inf"}`}} {
		got, err := json.Marshal(Float(tc.f))
		if err != nil || string(got) != tc.want {
			t.Errorf("marshal %v: %s, %v; want %s", tc.f, got, err, tc.want)
		}
		var back Value
		if err := json.Unmarshal(got, &back); err != nil || !identical(back, Float(tc.f)) {
			t.Errorf("round trip %v -> %s -> %v, %v", tc.f, got, back, err)
		}
	}
	for _, bad := range []string{`{"float":"nan"}`, `{"float":"Inf"}`, `{"float":""}`, `{"float":"1"}`} {
		var back Value
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("%s read as %v", bad, back)
		}
	}
	// A literal golden, so the reference itself cannot drift; reflection
	// over Event's struct tags and AppendJSON are the same document.
	e := Event{Type: "T<1>", TS: -5, Seq: 7, Attrs: Attrs{
		"s": Str("a\"b\u2028&"), "f": Float(1e-7), "g": Float(2.50), "i": Int(-42), "b": Bool(true),
	}.List()}
	const golden = `{"type":"T\u003c1\u003e","ts":-5,"seq":7,"attrs":{"b":{"bool":true},"f":{"float":1e-7},"g":{"float":2.5},"i":{"int":-42},"s":{"str":"a\"b\u2028\u0026"}}}`
	viaReflection, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	viaAppend, err := AppendJSON(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	if string(viaReflection) != golden || string(viaAppend) != golden {
		t.Errorf("event JSON:\n json.Marshal %s\n AppendJSON   %s\n golden       %s", viaReflection, viaAppend, golden)
	}
}

// TestValueUnmarshalMatchesReference: UnmarshalJSON returns what the
// pointer-union struct returned, or an error; it is stricter only in the
// three ways ParseJSON documents.
func TestValueUnmarshalMatchesReference(t *testing.T) {
	tests := []struct {
		raw      string
		stricter bool
	}{
		{raw: `{"int":1}`}, {raw: ` { "float" : -1.5e3 } `}, {raw: "{\n\"str\":\"a\\u00e9\\n\"\n}"}, {raw: `{"bool":false}`},
		{raw: `{"int":1,"extra":[1,{"a":null}]}`}, {raw: `{"extra":"x","bool":true}`},
		{raw: `{"float":1}`}, {raw: `{"float":-0}`}, {raw: `{"int":-0}`}, {raw: `{"int":9223372036854775807}`},
		{raw: `{}`}, {raw: `{"int":1,"str":"x"}`}, {raw: `[1]`}, {raw: `null`}, {raw: `1`}, {raw: `{"int":1.0}`},
		{raw: `{"int":9223372036854775808}`}, {raw: `{"float":1e999}`}, {raw: `{"int":"1"}`}, {raw: `{"str":1}`},
		{raw: `{"bool":"true"}`}, {raw: `{"int":1}x`}, {raw: `{"int":1`}, {raw: `{"int":01}`}, {raw: `{"extra":tru,"int":1}`},
		{raw: `{"int":1,"int":2}`, stricter: true},
		{raw: `{"int":null,"str":"x"}`, stricter: true},
		{raw: `{"Int":1}`, stricter: true},
		{raw: `{"\u017ftr":"x"}`, stricter: true},
	}
	for _, tt := range tests {
		want, refErr := refUnmarshalValue([]byte(tt.raw))
		var got Value
		err := json.Unmarshal([]byte(tt.raw), &got)
		switch {
		case tt.stricter:
			if err == nil || refErr != nil {
				t.Errorf("%s: err = %v, reference err = %v; want an error from the new decoder only", tt.raw, err, refErr)
			}
		case (err == nil) != (refErr == nil):
			t.Errorf("%s: err = %v, reference err = %v", tt.raw, err, refErr)
		case err == nil && !identical(got, want):
			t.Errorf("%s: got %v, reference %v", tt.raw, got, want)
		}
	}
}
