package event

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestEventHoldsNoMap pins the layout DESIGN.md §16 gives: four fields in
// 56 bytes (a 40-byte Event pointed at a map of some 400), and no map
// anywhere under them. A map back in Event means a hash table built per
// decoded event and a string hash per attribute lookup.
func TestEventHoldsNoMap(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 56 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 56", got)
	}
	if got := unsafe.Sizeof(Attr{}); got != 48 {
		t.Errorf("unsafe.Sizeof(Attr{}) = %d, want 48", got)
	}
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Map:
			t.Errorf("%s is a %s", path, typ)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Slice, reflect.Array, reflect.Pointer:
			walk(path+"[]", typ.Elem())
		case reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s, which could hold a map", path, typ)
		}
	}
	walk("Event", reflect.TypeOf(Event{}))
}

// TestEncodeRefusesNonCanonicalList: a hand-built list may be out of order
// or name an attribute twice. Every encoder returns an error naming the
// attribute, so no byte is written that ParseJSON would refuse or read back
// as a different list. (Lookups on such a list: TestGetEveryWidth.)
func TestEncodeRefusesNonCanonicalList(t *testing.T) {
	tests := []struct {
		name  string
		list  AttrList
		names string // what the error must cite
	}{
		{"out of order", AttrList{{"b", Int(1)}, {"a", Int(2)}}, `"a" out of order after "b"`},
		{"out of order at the end", AttrList{{"a", Int(1)}, {"c", Int(2)}, {"b", Int(3)}}, `"b" out of order after "c"`},
		{"duplicate", AttrList{{"a", Int(1)}, {"a", Int(2)}}, `duplicate attribute "a"`},
		{"duplicate at a distance", AttrList{{"a", Int(1)}, {"b", Int(2)}, {"a", Int(3)}}, `"a" out of order after "b"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := Event{Type: "A", TS: 1, Seq: 1, Attrs: tt.list}
			_, viaAppend := AppendJSON(nil, e)
			_, viaList := tt.list.MarshalJSON()
			_, viaReflection := json.Marshal(e)
			for how, err := range map[string]error{"AppendJSON": viaAppend, "AttrList.MarshalJSON": viaList, "json.Marshal": viaReflection} {
				if err == nil || !strings.Contains(err.Error(), tt.names) {
					t.Errorf("%s: err = %v, want one citing %s", how, err, tt.names)
				}
			}
		})
	}
	// The constructors cannot produce such a list.
	if _, err := AppendJSON(nil, New("A", 1, Attrs{"b": Int(1), "a": Int(2), "": Int(3)})); err != nil {
		t.Errorf("a list from New refused: %v", err)
	}
}

// TestGetEveryWidth: Get answers as a map lookup does, on canonical lists
// on both sides of scanWidth, where it starts to use the order, and on
// shorter lists in any order. Each name is asked as the list's own string
// (the identity hit), as a byte-equal copy at another address, and as a
// prefix of a listed name, which shares its address but not its length;
// every absent name is asked too. A list whose names are copies, not the
// name table's strings, gets the same answers.
func TestGetEveryWidth(t *testing.T) {
	for width := 0; width <= 5*scanWidth; width++ {
		attrs := make(Attrs, width)
		for i := 0; i < width; i++ {
			attrs[fmt.Sprintf("n%02d", 2*i+1)] = Int(int64(i))
		}
		list := attrs.List()
		copied := make(AttrList, len(list))
		for i, a := range list {
			copied[i] = Attr{strings.Clone(a.Name), a.Value}
		}
		asked := []string{"", "n", "n0", "n000"}
		for _, a := range list {
			asked = append(asked, a.Name, strings.Clone(a.Name), a.Name[:2])
		}
		for i := 0; i <= width; i++ {
			asked = append(asked, fmt.Sprintf("n%02d", 2*i))
		}
		check := func(how string, l AttrList) {
			for _, name := range asked {
				want, wantOK := attrs[name]
				if v, ok := l.Get(name); ok != wantOK || v != want {
					t.Fatalf("width %d, %s: Get(%q) = %v, %v, want %v, %v", width, how, name, v, ok, want, wantOK)
				}
			}
		}
		check("canonical", list)
		check("names copied", copied)
		if width <= scanWidth {
			rng := rand.New(rand.NewSource(int64(width)))
			rng.Shuffle(width, func(i, j int) { list[i], list[j] = list[j], list[i] })
			rng.Shuffle(width, func(i, j int) { copied[i], copied[j] = copied[j], copied[i] })
			check("shuffled", list)
			check("names copied, shuffled", copied)
		}
	}
}

// TestDecodeSortsAndRefusesDuplicates: members in any order give the one
// sorted list, on the line decoder and on the encoding/json path alike, and
// a name given twice is refused however far apart the two stand.
func TestDecodeSortsAndRefusesDuplicates(t *testing.T) {
	want := New("A", 0, Attrs{"a": Int(1), "b": Int(2), "c": Int(3), "d": Int(4)}).Attrs
	names := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		var members []string
		for _, n := range names {
			members = append(members, fmt.Sprintf(`"%s":{"int":%d}`, n, n[0]-'a'+1))
		}
		obj := "{" + strings.Join(members, ",") + "}"
		e, err := ParseJSON([]byte(`{"attrs":` + obj + `}`))
		if err != nil || !reflect.DeepEqual(e.Attrs, want) {
			t.Fatalf("ParseJSON %s = %v, %v; want %v", obj, e.Attrs, err, want)
		}
		var l AttrList
		if err := json.Unmarshal([]byte(obj), &l); err != nil || !reflect.DeepEqual(l, want) {
			t.Fatalf("json.Unmarshal %s = %v, %v; want %v", obj, l, err, want)
		}
		dup := "{" + strings.Join(append(members, `"`+names[0]+`":{"int":9}`), ",") + "}"
		if _, err := ParseJSON([]byte(`{"attrs":` + dup + `}`)); err == nil ||
			!strings.Contains(err.Error(), `duplicate attribute "`+names[0]+`"`) {
			t.Fatalf("ParseJSON %s: err = %v, want duplicate attribute %q", dup, err, names[0])
		}
		if err := json.Unmarshal([]byte(dup), &l); err == nil {
			t.Fatalf("json.Unmarshal %s accepted a duplicate", dup)
		}
	}
	// null leaves a list alone, as encoding/json does for a slice field;
	// an empty object is no attributes at all.
	l := AttrList{{"x", Int(1)}}
	if err := json.Unmarshal([]byte(`null`), &l); err != nil || len(l) != 1 {
		t.Errorf("null: %v, %v", l, err)
	}
	if err := json.Unmarshal([]byte(` { } `), &l); err != nil || l != nil {
		t.Errorf("empty object: %v, %v; want nil", l, err)
	}
	for _, raw := range []string{`[]`, `{"x":{"int":1}} x`, `{"x":1}`, `{"x":null}`, ``} {
		if err := json.Unmarshal([]byte(raw), &l); err == nil {
			t.Errorf("%q accepted", raw)
		}
	}
}

// randomAttrs draws a canonical list of n attributes, values of every kind.
func randomAttrs(rng *rand.Rand, n int) AttrList {
	attrs := make(Attrs, n)
	for len(attrs) < n {
		name := make([]rune, rng.Intn(6))
		for i := range name {
			name[i] = []rune("abAB<é\" \\\x00z_\u2028")[rng.Intn(13)]
		}
		var v Value
		switch rng.Intn(4) {
		case 0:
			v = Int(rng.Int63() - rng.Int63())
		case 1:
			v = Float([]float64{0, math.Copysign(0, -1), rng.NormFloat64(), 1e-7, 1e21, math.MaxFloat64, 5e-324}[rng.Intn(7)])
		case 2:
			v = Str(string(name) + "\n<v>")
		case 3:
			v = Bool(rng.Intn(2) == 0)
		}
		attrs[string(name)] = v
	}
	return attrs.List()
}

// TestEncodeDecodeRoundTripProperty: decode(encode(e)) is e, DeepEqual, for
// lists of 0 to 20 attributes, through the line codec and through
// encoding/json over the struct tags (the WAL and checkpoint path), which
// also write the same bytes.
func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		e := Event{Type: "T", TS: rng.Int63() - rng.Int63(), Seq: rng.Uint64(), Attrs: randomAttrs(rng, trial%21)}
		line, err := AppendJSON(nil, e)
		if err != nil {
			t.Fatalf("AppendJSON %v: %v", e, err)
		}
		back, err := ParseJSON(line)
		if err != nil || !reflect.DeepEqual(back, e) {
			t.Fatalf("line codec: %v -> %s -> %v, %v", e, line, back, err)
		}
		viaReflection, err := json.Marshal(e)
		if err != nil || string(viaReflection) != string(line) {
			t.Fatalf("json.Marshal %s (%v), AppendJSON %s", viaReflection, err, line)
		}
		var back2 Event
		if err := json.Unmarshal(viaReflection, &back2); err != nil || !reflect.DeepEqual(back2, e) {
			t.Fatalf("encoding/json: %v -> %s -> %v, %v", e, viaReflection, back2, err)
		}
		if c := e.Clone(); !reflect.DeepEqual(c, e) {
			t.Fatalf("Clone: %v -> %v", e, c)
		}
	}
}

// TestAttrlessEventStaysNil: every way of making an event without
// attributes leaves Attrs nil, so such events compare DeepEqual whichever
// path made them. (New and Clone used to give an empty non-nil map, the
// decoder nil.)
func TestAttrlessEventStaysNil(t *testing.T) {
	made := New("A", 1, nil)
	decoded, err := ParseJSON([]byte(`{"type":"A","ts":1,"attrs":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	var unmarshaled Event
	if err := json.Unmarshal([]byte(`{"type":"A","ts":1,"seq":0}`), &unmarshaled); err != nil {
		t.Fatal(err)
	}
	for how, e := range map[string]Event{"New(nil)": made, "New(Attrs{})": New("A", 1, Attrs{}), "Clone": made.Clone(), "ParseJSON": decoded, "json.Unmarshal": unmarshaled} {
		if e.Attrs != nil || !reflect.DeepEqual(e, made) {
			t.Errorf("%s: %#v, want nil Attrs", how, e)
		}
	}
}

var (
	sinkValue Value
	sinkOK    bool
)

// BenchmarkAttrGet is the lookup a predicate evaluation pays per attribute
// reference, at the widths an event may have, beside the map it replaced
// (EXPERIMENTS.md E27). Names are those of the benchmark's workloads plus
// filler; each iteration looks up every name once, hits only. list asks with
// the name table's strings, as a compiled predicate does; copied asks with
// byte-equal copies, which Get finds by content.
func BenchmarkAttrGet(b *testing.B) {
	for _, width := range []int{1, 3, 8, 12, 16, 32} {
		attrs := make(Attrs, width)
		for i, name := range []string{"id", "price", "sym"} {
			if i < width {
				attrs[name] = Int(int64(i))
			}
		}
		for i := len(attrs); i < width; i++ {
			attrs[fmt.Sprintf("attr%02d", i)] = Int(int64(i))
		}
		list := attrs.List()
		interned := make([]string, 0, width)
		copied := make([]string, 0, width)
		for _, a := range list {
			interned = append(interned, Intern(a.Name))
			copied = append(copied, strings.Clone(a.Name))
		}
		for _, side := range []struct {
			name  string
			asked []string
		}{{"list", interned}, {"copied", copied}} {
			b.Run(fmt.Sprintf("%s/%d", side.name, width), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, n := range side.asked {
						sinkValue, sinkOK = list.Get(n)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/get")
			})
		}
		b.Run(fmt.Sprintf("map/%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, n := range copied {
					sinkValue, sinkOK = attrs[n]
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/get")
		})
	}
}
