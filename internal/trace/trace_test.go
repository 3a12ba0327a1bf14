package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"

	"oostream/internal/event"
	"oostream/internal/gen"
)

// The reflection-driven codec this package used before the hand-rolled one
// lives on here as the differential reference: encoding/json over a struct
// of pointer unions.

type wireEvent struct {
	Type  string               `json:"type"`
	TS    int64                `json:"ts"`
	Seq   uint64               `json:"seq"`
	Attrs map[string]wireValue `json:"attrs,omitempty"`
}

type wireValue struct {
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Str   *string  `json:"str,omitempty"`
	Bool  *bool    `json:"bool,omitempty"`
}

func toWire(e event.Event) (wireEvent, error) {
	w := wireEvent{Type: e.Type, TS: e.TS, Seq: e.Seq}
	if len(e.Attrs) > 0 {
		w.Attrs = make(map[string]wireValue, len(e.Attrs))
		for _, a := range e.Attrs {
			wv, err := valueToWire(a.Value)
			if err != nil {
				return wireEvent{}, fmt.Errorf("attribute %q: %w", a.Name, err)
			}
			w.Attrs[a.Name] = wv
		}
	}
	return w, nil
}

func valueToWire(v event.Value) (wireValue, error) {
	switch v.Kind() {
	case event.KindInt:
		i, _ := v.AsInt()
		return wireValue{Int: &i}, nil
	case event.KindFloat:
		f, _ := v.AsFloat()
		return wireValue{Float: &f}, nil
	case event.KindString:
		s, _ := v.AsString()
		return wireValue{Str: &s}, nil
	case event.KindBool:
		b, _ := v.AsBool()
		return wireValue{Bool: &b}, nil
	default:
		return wireValue{}, fmt.Errorf("cannot serialize %s value", v.Kind())
	}
}

func fromWire(w wireEvent) (event.Event, error) {
	e := event.Event{Type: w.Type, TS: w.TS, Seq: w.Seq}
	if len(w.Attrs) > 0 {
		// Sorted here and not by event.Attrs.List, which shares its sort
		// with the decoder under test.
		names := make([]string, 0, len(w.Attrs))
		for k := range w.Attrs {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v, err := valueFromWire(w.Attrs[k])
			if err != nil {
				return event.Event{}, fmt.Errorf("attribute %q: %w", k, err)
			}
			e.Attrs = append(e.Attrs, event.Attr{Name: k, Value: v})
		}
	}
	return e, nil
}

func valueFromWire(w wireValue) (event.Value, error) {
	set := 0
	var v event.Value
	if w.Int != nil {
		set++
		v = event.Int(*w.Int)
	}
	if w.Float != nil {
		set++
		v = event.Float(*w.Float)
	}
	if w.Str != nil {
		set++
		v = event.Str(*w.Str)
	}
	if w.Bool != nil {
		set++
		v = event.Bool(*w.Bool)
	}
	if set != 1 {
		return event.Value{}, fmt.Errorf("value must set exactly one field, got %d", set)
	}
	return v, nil
}

// refWrite is the old Writer.Write: one json.Encoder line.
func refWrite(enc *json.Encoder, e event.Event) error {
	we, err := toWire(e)
	if err != nil {
		return err
	}
	return enc.Encode(we)
}

// refDecode is the old Reader.Read for one non-blank line.
func refDecode(line []byte) (event.Event, error) {
	var w wireEvent
	if err := json.Unmarshal(line, &w); err != nil {
		return event.Event{}, err
	}
	return fromWire(w)
}

// sameEvent compares bit for bit: attribute order, kinds, float bits (so -0
// and 0 differ), and nil against empty attrs.
func sameEvent(a, b event.Event) bool {
	if a.Type != b.Type || a.TS != b.TS || a.Seq != b.Seq || len(a.Attrs) != len(b.Attrs) || (a.Attrs == nil) != (b.Attrs == nil) {
		return false
	}
	for i := range a.Attrs {
		av, bv := a.Attrs[i].Value, b.Attrs[i].Value
		if a.Attrs[i].Name != b.Attrs[i].Name || av.Kind() != bv.Kind() {
			return false
		}
		if av.Kind() == event.KindFloat {
			af, _ := av.AsFloat()
			bf, _ := bv.AsFloat()
			if math.Float64bits(af) != math.Float64bits(bf) {
				return false
			}
		} else if !av.Equal(bv) {
			return false
		}
	}
	return true
}

// member is one key of a JSON object with its raw value.
type member struct {
	key string
	raw json.RawMessage
}

// members lists an object's members in order, duplicates included; ok is
// false when raw is not an object.
func members(raw []byte) (out []member, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, false
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, false
		}
		m := member{key: tok.(string)}
		if err := dec.Decode(&m.raw); err != nil {
			return nil, false
		}
		out = append(out, m)
	}
	return out, true
}

// stricter reports whether line falls under one of the three documented
// cases where the decoder refuses what encoding/json accepts: a duplicate
// key, a null, or a key differing from a known one only in case. It walks
// the line with encoding/json's tokenizer, independently of the decoder.
func stricter(line []byte) bool {
	if string(bytes.TrimSpace(line)) == "null" {
		return true
	}
	top, ok := members(line)
	if !ok {
		return false
	}
	if strictObject(top, "type", "ts", "seq", "attrs") {
		return true
	}
	for _, m := range top {
		if m.key != "attrs" {
			continue
		}
		attrs, ok := members(m.raw)
		if !ok {
			continue
		}
		names := map[string]bool{}
		for _, a := range attrs {
			if names[a.key] {
				return true
			}
			names[a.key] = true
			if val, ok := members(a.raw); ok && strictObject(val, "int", "float", "str", "bool") {
				return true
			}
		}
	}
	return false
}

func strictObject(ms []member, known ...string) bool {
	seen := map[string]bool{}
	for _, m := range ms {
		for _, k := range known {
			if m.key == k {
				if seen[k] || string(m.raw) == "null" {
					return true
				}
				seen[k] = true
			} else if strings.EqualFold(m.key, k) {
				return true
			}
		}
	}
	return false
}

// checkAgainstReference reads data with the Reader and with the reference
// decoder, line by line, and reports any difference the format grammar
// does not document. Events are compared only after the Reader has moved
// on through the whole input, so a string still pointing into the
// scanner's reused buffer shows up as a mismatch.
func checkAgainstReference(data []byte) error {
	type result struct {
		e   event.Event
		err error
	}
	var got []result
	r := NewReader(bytes.NewReader(data))
	for {
		e, err := r.Read()
		if err == io.EOF {
			break
		}
		got = append(got, result{e, err})
		if errors.Is(err, bufio.ErrTooLong) {
			break
		}
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16*1024*1024)
	n := 0
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(bytes.Trim(raw, " \t\r")) == 0 {
			continue
		}
		if n >= len(got) {
			return fmt.Errorf("line %d: reader stopped early, after %d results", line, n)
		}
		g := got[n]
		n++
		want, refErr := refDecode(raw)
		switch {
		case g.err != nil:
			if prefix := fmt.Sprintf("line %d: ", line); !strings.HasPrefix(g.err.Error(), prefix) {
				return fmt.Errorf("line %d: error does not cite it: %v", line, g.err)
			}
			if refErr == nil && !stricter(raw) {
				return fmt.Errorf("line %d %q: reader fails with %v, reference decodes %v", line, raw, g.err, want)
			}
		case refErr != nil:
			return fmt.Errorf("line %d %q: reader decodes %v, reference fails with %v", line, raw, g.e, refErr)
		case !sameEvent(g.e, want):
			return fmt.Errorf("line %d %q: reader decodes %v, reference %v", line, raw, g.e, want)
		}
	}
	if n != len(got) && !(n == len(got)-1 && errors.Is(got[n].err, bufio.ErrTooLong)) {
		return fmt.Errorf("reader returned %d results, reference %d", len(got), n)
	}
	return nil
}

// allKinds is the TestRoundTripAllKinds input.
var allKinds = []event.Event{
	{Type: "A", TS: 10, Seq: 1, Attrs: event.Attrs{
		"i": event.Int(-42),
		"f": event.Float(2.5),
		"s": event.Str("hé\"llo\n"),
		"b": event.Bool(true),
	}.List()},
	{Type: "B", TS: -5, Seq: 2},
}

func encode(t testing.TB, events []event.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteAll(events); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripAllKinds(t *testing.T) {
	out, err := NewReader(bytes.NewReader(encode(t, allKinds))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(allKinds) {
		t.Fatalf("count = %d", len(out))
	}
	for i := range allKinds {
		if !sameEvent(allKinds[i], out[i]) {
			t.Fatalf("event %d: %v vs %v", i, allKinds[i], out[i])
		}
	}
}

func TestRoundTripWorkloadPreservesArrivalOrder(t *testing.T) {
	events := gen.Shuffle(gen.RFID(gen.DefaultRFID(50, 3)), gen.Disorder{Ratio: 0.3, MaxDelay: 500, Seed: 4})
	out, err := NewReader(bytes.NewReader(encode(t, events))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if out[i].Seq != events[i].Seq {
			t.Fatalf("arrival order changed at %d", i)
		}
	}
}

// hostileLines are inputs the differential check must hold on; they also
// seed FuzzReadLine.
func hostileLines() []string {
	long := strings.Repeat("x", 70*1024)
	return []string{
		`{"type":"A","ts":1,"seq":1,"attrs":{"x":{"int":1}}}`,
		`  { "attrs" : { "y" : { "bool" : false } , "x":{"float":-0} } , "seq" : 7 , "ts" : -0 , "type" : "T" }  ` + "\r",
		`{}`,
		`{"attrs":{}}`,
		`{"type":"esc \" \\ \/ \b\f\n\r\t \u00e9 \ud83d\ude00 \ud83d","ts":1,"seq":1,"attrs":{"na\u006de":{"str":"\u2028<>&"}}}`,
		"{\"type\":\"bad utf8 \xff\xfe\",\"attrs\":{\"k\xc3\":{\"str\":\"v\xe2\x82\"}}}",
		`{"type":"ctl` + "\x01" + `"}`,
		`{"type":"bad \x escape"}`,
		`{"type":"A","ts":1e3}`,
		`{"type":"A","ts":1.0}`,
		`{"type":"A","ts":01}`,
		`{"type":"A","ts":-}`,
		`{"type":"A","ts":9223372036854775807,"seq":18446744073709551615}`,
		`{"type":"A","ts":-9223372036854775808}`,
		`{"type":"A","ts":9223372036854775808}`,
		`{"type":"A","ts":-9223372036854775809}`,
		`{"type":"A","seq":18446744073709551616}`,
		`{"type":"A","seq":99999999999999999999}`,
		`{"type":"A","seq":-0}`,
		`{"type":"A","seq":-1}`,
		`{"attrs":{"f":{"float":1e3},"g":{"float":1E-400},"h":{"float":12345678901234567890123},"i":{"float":0.1e+2},"j":{"float":7}}}`,
		`{"attrs":{"f":{"float":1e999}}}`,
		`{"attrs":{"f":{"float":Inf}}}`,
		`{"attrs":{"f":{"float":NaN}}}`,
		`{"attrs":{"f":{"float":0x10}}}`,
		`{"attrs":{"f":{"float":1_0}}}`,
		`{"attrs":{"f":{"float":1.}}}`,
		`{"attrs":{"f":{"float":.5}}}`,
		`{"attrs":{"f":{"float":1e}}}`,
		`{"attrs":{"f":{"float":+1}}}`,
		`{"attrs":{"i":{"int":1e3}}}`,
		`{"attrs":{"i":{"int":"1"}}}`,
		`{"attrs":{"b":{"bool":1}}}`,
		`{"attrs":{"b":{"bool":tru}}}`,
		`{"attrs":{"s":{"str":5}}}`,
		`{"attrs":{"s":{"str":"` + long + `"}}}`,
		`{"attrs":{"x":{}}}`,
		`{"attrs":{"x":{"int":1,"str":"s"}}}`,
		`{"attrs":{"x":5}}`,
		`{"attrs":[]}`,
		`{"attrs":{"x":{"int":1,"note":[1,{"a":"}"},"]"]}}}`,
		`{"unknown":{"nested":[1,2,{"x":null}],"s":"a\"}"},"type":"A","also":-1.5e-3,"t":true,"n":null}`,
		`{"unknown":[1,,2],"type":"A"}`,
		`{"unknown":{"a" 1},"type":"A"}`,
		`{"unknown":tru,"type":"A"}`,
		`{"unknown":,"type":"A"}`,
		`{"unknown":"unterminated,"type":"A"}`,
		`{"unknown":[}],"type":"A"}`,
		`{"type":"A",}`,
		`{"type":"A" "ts":1}`,
		`{"type" "A"}`,
		`{type:"A"}`,
		`{"type":"A"} trailing`,
		`{"type":"A"}{"type":"B"}`,
		`{"type":"A"`,
		`[]`,
		`5`,
		`"s"`,
		"\ufeff" + `{"type":"A"}`,
		// Attribute members in any order give the one sorted list: reversed,
		// interleaved, a prefix of another name, past the decoder's stack
		// buffer of eight.
		`{"attrs":{"c":{"int":3},"b":{"int":2},"a":{"int":1}}}`,
		`{"attrs":{"b":{"int":2},"d":{"int":4},"a":{"int":1},"c":{"int":3}}}`,
		`{"attrs":{"ab":{"int":2},"":{"int":0},"a":{"int":1},"B":{"int":3}}}`,
		`{"attrs":{"k9":{"int":9},"k1":{"int":1},"k8":{"int":8},"k2":{"int":2},"k7":{"int":7},"k3":{"int":3},"k6":{"int":6},"k4":{"int":4},"k5":{"int":5},"k0":{"int":0}}}`,
		// The three documented strictness differences.
		`{"type":"A","type":"B"}`,
		`{"ts":1,"ts":2}`,
		`{"attrs":{"x":{"int":1}},"attrs":{"y":{"int":2}}}`,
		`{"attrs":{"x":{"int":1},"x":{"int":2}}}`,
		`{"attrs":{"x":{"int":1},"a":{"int":0},"z":{"int":3},"x":{"int":2}}}`,
		`{"attrs":{"a":{"int":1},"b":{"int":2},"c":{"int":3},"a":{"int":4}}}`,
		`{"attrs":{"k0":{"int":0},"k1":{"int":1},"k2":{"int":2},"k3":{"int":3},"k4":{"int":4},"k5":{"int":5},"k6":{"int":6},"k7":{"int":7},"k8":{"int":8},"k0":{"int":9}}}`,
		`{"attrs":{"x":{"int":1,"int":2}}}`,
		`null`,
		`{"type":null}`,
		`{"ts":null}`,
		`{"seq":null}`,
		`{"attrs":null}`,
		`{"attrs":{"x":null}}`,
		`{"attrs":{"x":{"int":null,"str":"s"}}}`,
		`{"Type":"A"}`,
		`{"TS":1}`,
		`{"t\u017f":1}`,
		`{"tſ":1}`,
		`{"attrs":{"x":{"INT":1}}}`,
		`{"attrs":{"x":{"\u017ftr":"s"}}}`,
		`{"ATTRS":{}}`,
	}
}

func TestReaderMatchesReference(t *testing.T) {
	for _, line := range hostileLines() {
		if err := checkAgainstReference([]byte(line + "\n")); err != nil {
			t.Error(err)
		}
	}
	// All of them as one stream: every line number is cited and the
	// Reader goes on after an error.
	if err := checkAgainstReference([]byte(strings.Join(hostileLines(), "\n"))); err != nil {
		t.Error(err)
	}
	// encoding/json nests 10000 levels and no more; a skipped member is
	// held to the same limit.
	for _, levels := range []int{9999, 10000} {
		line := `{"skip":` + strings.Repeat("[", levels) + strings.Repeat("]", levels) + `,"type":"A"}`
		if err := checkAgainstReference([]byte(line)); err != nil {
			t.Errorf("%d levels: %v", levels, err)
		}
		_, err := NewReader(strings.NewReader(line)).Read()
		if (err != nil) != (levels == 10000) {
			t.Errorf("%d levels: err = %v", levels, err)
		}
	}
}

// TestStringsSurviveNextRead pins the buffer-reuse contract: nothing an
// event holds may alias the scanner's buffer.
func TestStringsSurviveNextRead(t *testing.T) {
	input := `{"type":"FIRST","attrs":{"name1":{"str":"value1"}}}` + "\n" +
		`{"type":"OTHER","attrs":{"eman2":{"str":"2eulav"}}}` + "\n"
	r := NewReader(strings.NewReader(input))
	first, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	v, _ := first.Attr("name1")
	if s, _ := v.AsString(); first.Type != "FIRST" || s != "value1" {
		t.Fatalf("first event changed under the second read: %v", first)
	}
}

func TestReadErrors(t *testing.T) {
	tests := []struct {
		name, input string
		line        int
	}{
		{"bad json", "{not json}\n", 1},
		{"no value fields", `{"type":"A","ts":1,"seq":1,"attrs":{"x":{}}}` + "\n", 1},
		{"two value fields", `{"type":"A","ts":1,"seq":1,"attrs":{"x":{"int":1,"str":"s"}}}` + "\n", 1},
		{"int64 overflow", `{"ts":9223372036854775808}` + "\n", 1},
		{"uint64 overflow", `{"seq":18446744073709551616}` + "\n", 1},
		{"exponent in an int slot", `{"ts":1e3}` + "\n", 1},
		{"Inf", `{"attrs":{"x":{"float":Inf}}}` + "\n", 1},
		{"hex float", `{"attrs":{"x":{"float":0x1p4}}}` + "\n", 1},
		{"underscore", `{"attrs":{"x":{"float":1_000}}}` + "\n", 1},
		{"second line", `{"type":"A"}` + "\n" + `{"type":}` + "\n", 2},
		// Stricter than encoding/json, see the package doc.
		{"duplicate member", `{"type":"A","type":"B"}` + "\n", 1},
		{"duplicate attribute", `{"attrs":{"x":{"int":1},"x":{"int":2}}}` + "\n", 1},
		{"duplicate attribute, first and last", `{"attrs":{"a":{"int":1},"b":{"int":2},"c":{"int":3},"a":{"int":4}}}` + "\n", 1},
		{"duplicate attribute, out of order between", `{"attrs":{"m":{"int":1},"z":{"int":2},"a":{"int":3},"m":{"int":4}}}` + "\n", 1},
		{"duplicate tag", `{"attrs":{"x":{"int":1,"int":2}}}` + "\n", 1},
		{"null line", "null\n", 1},
		{"null member", `{"type":"A","ts":null}` + "\n", 1},
		{"null tag", `{"attrs":{"x":{"int":null,"str":"s"}}}` + "\n", 1},
		{"member differing in case", `{"Type":"A"}` + "\n", 1},
		{"tag differing in case", `{"attrs":{"x":{"Int":1}}}` + "\n", 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewReader(strings.NewReader(tt.input)).ReadAll()
			if err == nil {
				t.Fatal("want error")
			}
			if want := fmt.Sprintf("line %d: ", tt.line); !strings.HasPrefix(err.Error(), want) {
				t.Errorf("error should start with %q: %v", want, err)
			}
		})
	}
}

// TestOversizedLineKeepsItsPosition: a line over the 16 MiB limit used to
// surface as a bare "bufio.Scanner: token too long".
func TestOversizedLineKeepsItsPosition(t *testing.T) {
	input := io.MultiReader(
		strings.NewReader(`{"type":"A"}`+"\n\n"+`{"type":"B"}`+"\n"+`{"type":"`),
		io.LimitReader(zeros{}, 17<<20),
	)
	r := NewReader(input)
	for _, want := range []string{"A", "B"} {
		if e, err := r.Read(); err != nil || e.Type != want {
			t.Fatalf("Read = %v, %v; want type %s", e, err, want)
		}
	}
	_, err := r.Read()
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
	if !strings.HasPrefix(err.Error(), "line 4: ") {
		t.Errorf("error should cite line 4: %v", err)
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

func TestBlankLinesSkipped(t *testing.T) {
	input := "\n" + `{"type":"A","ts":1,"seq":1}` + "\n\n \t \r\n" + `{"type":"B","ts":2,"seq":2}` + "\n   "
	out, err := NewReader(strings.NewReader(input)).ReadAll()
	if err != nil || len(out) != 2 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestReadEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestWriteInvalidValue(t *testing.T) {
	w := NewWriter(io.Discard)
	for _, v := range []event.Value{{}, event.Float(math.NaN()), event.Float(math.Inf(-1))} {
		if err := w.Write(event.Event{Type: "A", Attrs: event.Attrs{"x": v}.List()}); err == nil {
			t.Errorf("%v should not serialize", v)
		}
	}
	// The Writer is usable after a refused event.
	if err := w.Write(event.Event{Type: "A"}); err != nil {
		t.Fatal(err)
	}
}

// hostileEvents are what the old and the new Writer must agree on beyond
// the generated workloads: every escape class of encoding/json and every
// float formatting branch.
func hostileEvents() []event.Event {
	floats := event.Attrs{}
	for i, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.9e-7, 1e-7, 1e20, 1e21, 1.5e300, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125, 1e-9, 1.234e-10} {
		floats[fmt.Sprintf("f%02d", i)] = event.Float(f)
	}
	many := event.Attrs{}
	for i := 0; i < 20; i++ {
		many[fmt.Sprintf("k%d", (i*7)%20)] = event.Int(int64(i))
	}
	return []event.Event{
		{Type: "<script>&amp;", TS: math.MinInt64, Seq: math.MaxUint64, Attrs: event.Attrs{
			"<k>":           event.Str("a<b>c&d"),
			"line\u2028":    event.Str("sep \u2028 \u2029"),
			"bad\xff":       event.Str("invalid \xff\xfe utf8 \xe2\x82"),
			"ctl":           event.Str("\x00\x01\b\f\n\r\t\x1f\x7f"),
			"quote\"back\\": event.Str(`"\`),
			"é":             event.Str("héllo 😀"),
			"":              event.Str(""),
			"int":           event.Int(math.MaxInt64),
			"bool":          event.Bool(false),
		}.List()},
		{Type: "", TS: 0, Seq: 0, Attrs: floats.List()},
		{Type: "MANY", TS: 1, Seq: 2, Attrs: many.List()},
		{Type: "EMPTY", Attrs: event.AttrList{}},
	}
}

// TestWriterMatchesReference: the append encoder's lines are the
// json.Encoder's, byte for byte, on every generated workload and on the
// hostile events.
func TestWriterMatchesReference(t *testing.T) {
	workloads := map[string][]event.Event{
		"allkinds":  allKinds,
		"rfid":      gen.Shuffle(gen.RFID(gen.DefaultRFID(300, 1)), gen.Disorder{Ratio: 0.2, MaxDelay: 2000, Seed: 2}),
		"intrusion": gen.Intrusion(gen.DefaultIntrusion(20, 3)),
		"stock":     gen.Stock(gen.DefaultStock(500, 4)),
		"uniform":   gen.Uniform(500, []string{"A", "B", "C"}, 8, 15, 5),
		"hostile":   hostileEvents(),
	}
	for name, events := range workloads {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, e := range events {
			if err := refWrite(enc, e); err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
		}
		got := encode(t, events)
		if !bytes.Equal(got, want.Bytes()) {
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
			for i := range wl {
				if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("%s line %d:\n got %s\nwant %s", name, i+1, gl[min(i, len(gl)-1)], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d", name, len(gl), len(wl))
		}
		// And the lines read back to what the reference reads.
		if err := checkAgainstReference(got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGzipRoundTrip(t *testing.T) {
	events := gen.Uniform(200, []string{"A", "B"}, 4, 10, 5)
	var buf bytes.Buffer
	w := NewGzipWriter(&buf)
	if err := w.WriteAll(events); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, closer, err := NewAutoReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if closer == nil {
		t.Fatal("gzip input should return a closer")
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(out), len(events))
	}
	for i := range out {
		if out[i].Seq != events[i].Seq {
			t.Fatal("order changed")
		}
	}
}

func TestAutoReaderPlainInput(t *testing.T) {
	input := `{"type":"A","ts":1,"seq":1}` + "\n"
	r, closer, err := NewAutoReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if closer != nil {
		t.Fatal("plain input should not return a closer")
	}
	out, err := r.ReadAll()
	if err != nil || len(out) != 1 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestAutoReaderEmptyAndShortInput(t *testing.T) {
	for _, input := range []string{"", "{"} {
		if _, _, err := NewAutoReader(strings.NewReader(input)); err != nil {
			t.Errorf("input %q: %v", input, err)
		}
	}
	// Corrupt gzip header after magic fails cleanly.
	if _, _, err := NewAutoReader(strings.NewReader("\x1f\x8bgarbage")); err == nil {
		t.Error("corrupt gzip accepted")
	}
}

// FuzzReadLine: for arbitrary bytes the Reader never panics and either
// returns exactly the event the reflection reference returns or a
// "line N:" error; it is stricter than the reference only where the
// package doc says so, and never returns a different event.
func FuzzReadLine(f *testing.F) {
	f.Add(encode(f, allKinds))
	for _, line := range hostileLines() {
		f.Add([]byte(line))
	}
	f.Add([]byte(strings.Join(hostileLines()[:6], "\n")))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkAgainstReference(data); err != nil {
			t.Fatal(err)
		}
	})
}

// rfidTrace is the seeded trace the layer benchmarks decode: the
// rfid-seq-native stream of the repository benchmark at a tenth the size.
func rfidTrace(tb testing.TB) []byte {
	events := gen.Shuffle(gen.RFID(gen.DefaultRFID(2400, 1)), gen.Disorder{Ratio: 0.2, MaxDelay: 2000, Seed: 2})
	return encode(tb, events)
}

// TestDecodeAllocations pins the decoder's cost where the benchmark's
// trace.allocs_per_event reads it: a two-attribute line is the attribute
// list, allocated once at its size, and the string value; the type and the
// attribute names come from the name table. A third allocation per line
// means a map, or a list grown by append, is back in the decoder.
func TestDecodeAllocations(t *testing.T) {
	line := `{"type":"SHELF","ts":65,"seq":3,"attrs":{"aisle":{"str":"a4"},"id":{"int":2}}}` + "\n"
	// A Reader's own allocations are paid once per run and the three names
	// once per process, so the difference between two run lengths is the
	// lines alone.
	allocs := func(lines int) float64 {
		input := strings.Repeat(line, lines)
		return testing.AllocsPerRun(50, func() {
			r := NewReader(strings.NewReader(input))
			for i := 0; i < lines; i++ {
				if _, err := r.Read(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if perLine := (allocs(200) - allocs(100)) / 100; perLine > 2 {
		t.Errorf("decode of a two-attribute line: %.2f allocations, want at most 2", perLine)
	}
}

var sinkEvent event.Event

// BenchmarkReaderRead is the trace.decode_* layer of the repository
// benchmark on its own: go test -bench ReaderRead ./internal/trace.
func BenchmarkReaderRead(b *testing.B) {
	data := rfidTrace(b)
	lines := bytes.Count(data, []byte("\n"))
	b.SetBytes(int64(len(data) / lines))
	b.ReportAllocs()
	src := bytes.NewReader(data)
	r := NewReader(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := r.Read()
		if err == io.EOF {
			src.Reset(data)
			r = NewReader(src)
			e, err = r.Read()
		}
		if err != nil {
			b.Fatal(err)
		}
		sinkEvent = e
	}
}

// BenchmarkReaderReadReference is the same over the reflection reference,
// so one run shows both sides.
func BenchmarkReaderReadReference(b *testing.B) {
	data := rfidTrace(b)
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	b.SetBytes(int64(len(data) / len(lines)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := refDecode(lines[i%len(lines)])
		if err != nil {
			b.Fatal(err)
		}
		sinkEvent = e
	}
}

func BenchmarkWriterWrite(b *testing.B) {
	events := gen.RFID(gen.DefaultRFID(2400, 1))
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
	}
}
