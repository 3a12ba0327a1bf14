package event

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// canonicalLine is a line as AppendJSON writes it, which every perturbation
// below changes in one place.
const canonicalLine = `{"type":"SHELF","ts":65,"seq":3,"attrs":{"aisle":{"str":"a4"},"id":{"int":2},"ok":{"bool":true},"w":{"float":2.5}}}`

// layoutRow is a line with whether the writer-layout pass must read it
// (true) or leave it to the scanner (false).
type layoutRow struct {
	line string
	read bool
}

// layoutLines are the seeds of FuzzWriterLayout and the rows of
// TestWriterLayoutDeclines.
func layoutLines(tb testing.TB) []layoutRow {
	tb.Helper()
	var rows []layoutRow
	add := func(line string, read bool) { rows = append(rows, layoutRow{line, read}) }
	// Every line AppendJSON writes is read: the two events of the trace
	// package's round trip, and the tokens it writes in other forms than the
	// canonical line's (escaped and non-ASCII strings, exponent and
	// non-finite floats, a list longer than the name cache).
	wide := Attrs{}
	for c := 'a'; c <= 'k'; c++ {
		wide[string(c)] = Int(int64(c))
	}
	for _, e := range []Event{
		{Type: "A", TS: 10, Seq: 1, Attrs: Attrs{"i": Int(-42), "f": Float(2.5), "s": Str("hé\"llo\n"), "b": Bool(true)}.List()},
		{Type: "B", TS: -5, Seq: 2},
		{Type: "<é>", TS: 1, Seq: 1, Attrs: Attrs{"a&b": Str("x<y>\u2028\xff"), "k": Float(1e21), "m": Float(1e-7), "n": Float(math.NaN()), "p": Float(math.Inf(1)), "q": Float(math.Inf(-1))}.List()},
		{Type: "W", TS: 2, Seq: 2, Attrs: wide.List()},
	} {
		line, err := AppendJSON(nil, e)
		if err != nil {
			tb.Fatal(err)
		}
		add(string(line), true)
	}
	add(canonicalLine, true)
	add(`{"type":"","ts":-9223372036854775808,"seq":18446744073709551615,"attrs":{"":{"str":""},"a":{"float":-0},"b":{"bool":false},"c":{"int":9223372036854775807}}}`, true)
	for _, p := range []struct {
		from, to string
		read     bool // a token the scanner's reader takes, in the layout
	}{
		{`"ts":65`, `"ts": 65`, false},                              // a space after a colon
		{`"type":"SHELF","ts":65`, `"ts":65,"type":"SHELF"`, false}, // members reordered
		{`"ts"`, `"TS"`, false},
		{`"ts":65`, `"ts":null`, false},
		{`"id":{"int":2}`, `"aisle":{"int":2}`, false}, // a duplicate attribute
		{`"id":{"int":2}`, `"ab":{"int":2}`, false},    // out of order
		{`"aisle":{"str":"a4"},"id":{"int":2},"ok":{"bool":true},"w":{"float":2.5}`, ``, false},
		{`"a4"`, `"a\"4"`, true},
		{`"a4"`, `"aé"`, true},
		{`"a4"`, `"a\u00e9"`, true},
		{`"a4"`, `"a` + "\xff" + `"`, true},
		{`"a4"`, `"a` + "\t" + `"`, false},
		{`"a4"`, `"a\x"`, false},
		{`"SHELF"`, `"SHÉLF"`, true},
		{`"aisle"`, `"a\u0069sle"`, true},
		{`"seq":3`, `"seq":03`, false},
		{`"ts":65`, `"ts":065`, false},
		{`"int":2`, `"int":02`, false},
		{`"int":2`, `"int":2.0`, false},
		{`"int":2`, `"int":2e2`, false},
		{`"ts":65`, `"ts":1.0`, false},
		{`"ts":65`, `"ts":1e2`, false},
		{`"int":2`, `"int":-0`, true},
		{`"ts":65`, `"ts":-0`, true},
		{`"ts":65`, `"ts":9223372036854775808`, false},
		{`"ts":65`, `"ts":-9223372036854775809`, false},
		{`"seq":3`, `"seq":18446744073709551616`, false},
		{`"seq":3`, `"seq":-3`, false},
		{`"float":2.5`, `"float":2.5e3`, true},
		{`"float":2.5`, `"float":1e+21`, true},
		{`"float":2.5`, `"float":1e-7`, true},
		{`"float":2.5`, `"float":"NaN"`, true},
		{`"float":2.5`, `"float":"+Inf"`, true},
		{`"float":2.5`, `"float":"Inf"`, false},
		{`"float":2.5`, `"float":1e400`, false},
		{`"float":2.5`, `"float":.5`, false},
		{`"float":2.5`, `"float":2.`, false},
		{`"bool":true`, `"bool":tru`, false},
		{`"bool":true`, `"bool":1`, false},
		{`"int":2`, `"int":2,"x":1`, false},
		{`"int":2`, `"Int":2`, false},
		{`"seq":3,`, `"seq":3,"x":1,`, false}, // an unknown member
		{`"w":{"float":2.5}}}`, `"w":{"float":2.5}}} `, false},
		{`"w":{"float":2.5}}}`, `"w":{"float":2.5}}}x`, false},
		{`"w":{"float":2.5}}}`, `"w":{"float":2.5}}}` + "\r", false},
		{`"w":{"float":2.5}}}`, `"w":{"float":2.5}}`, false},
		{`{"type"`, ` {"type"`, false},
	} {
		if !strings.Contains(canonicalLine, p.from) {
			tb.Fatalf("perturbation %q: not in the canonical line", p.from)
		}
		add(strings.Replace(canonicalLine, p.from, p.to, 1), p.read)
	}
	return rows
}

// checkLayout holds the writer-layout pass to the scanner on one line read
// with d, whose caches hold what the lines before it left: the pass
// declines, or returns the scanner's event with the table's names, and
// Parse returns the scanner's event or error.
func checkLayout(t *testing.T, d *Decoder, data []byte) (read bool) {
	t.Helper()
	want, wantErr := ParseJSON(data)
	got, ok := d.parseLayout(data)
	if ok {
		if wantErr != nil {
			t.Fatalf("%q: the layout pass reads %v, the scanner refuses it: %v", data, got, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: the layout pass reads %#v, the scanner %#v", data, got, want)
		}
		names := []string{got.Type}
		for _, a := range got.Attrs {
			names = append(names, a.Name)
		}
		for _, n := range names {
			if table, again := Intern(n), Intern(n); len(n) > 0 && sameString(table, again) && !sameString(n, table) {
				t.Fatalf("%q: name %q is not the table's string", data, n)
			}
		}
	}
	e, err := d.Parse(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q: Parse: error %v, the scanner's %v", data, err, wantErr)
	}
	if !reflect.DeepEqual(e, want) {
		t.Fatalf("%q: Parse reads %#v, the scanner %#v", data, e, want)
	}
	return ok
}

// TestWriterLayoutDeclines: the writer-layout pass reads every line
// AppendJSON writes and any spelling of a token the scanner takes in its
// place, and declines at any other change, leaving the line to the
// scanner, which reads it to the same event or refuses it.
func TestWriterLayoutDeclines(t *testing.T) {
	var d Decoder
	for _, row := range layoutLines(t) {
		if read := checkLayout(t, &d, []byte(row.line)); read != row.read {
			t.Errorf("%s: layout pass read it = %v, want %v", row.line, read, row.read)
		}
	}
}

// FuzzWriterLayout: for any input, split into lines read in turn by one
// Decoder, the writer-layout pass declines each line or agrees with the
// scanner on it, and never reads a line the scanner refuses.
func FuzzWriterLayout(f *testing.F) {
	var all []string
	for _, row := range layoutLines(f) {
		f.Add([]byte(row.line))
		all = append(all, row.line)
	}
	f.Add([]byte(strings.Join(all, "\n")))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		for _, line := range bytes.Split(data, []byte("\n")) {
			checkLayout(t, &d, line)
		}
	})
}

// TestDecoderCachesFollowTheStream: a Decoder whose caches hold one writer's
// names reads another's lines right, and hands a name out as the
// table's string whichever way it was cached.
func TestDecoderCachesFollowTheStream(t *testing.T) {
	freshNameTable(t)
	var d Decoder
	for i := 0; i < 3*recentTypes; i++ {
		for _, line := range []string{
			fmt.Sprintf(`{"type":"T%d","ts":1,"seq":1,"attrs":{"a":{"str":"v%d"},"b":{"int":1}}}`, i, i),
			fmt.Sprintf(`{"type":"T%d","ts":2,"seq":2,"attrs":{"b":{"str":"v%d"}}}`, i, i%2),
			fmt.Sprintf(`{"attrs":{"a%d":{"int":3}},"type":"T%d"}`, i, i%3),
		} {
			want, wantErr := ParseJSON([]byte(line))
			got, err := d.Parse([]byte(line))
			if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Parse %v, %v; scanner %v, %v", line, got, err, want, wantErr)
			}
			for _, a := range got.Attrs {
				if !sameString(a.Name, Intern(a.Name)) {
					t.Fatalf("%s: name %q is not the table's string", line, a.Name)
				}
			}
		}
	}
}
