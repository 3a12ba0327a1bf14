package event

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// This file is the hand-rolled codec for the JSON form of the event model:
// a Value is the tagged object {"int"|"float"|"str"|"bool": v}, an AttrList
// the object {name: value} with its names in list order, and an Event
// {"type","ts","seq","attrs":{name: value}}. It is the one definition of
// the Value and AttrList forms (trace, WAL and checkpoints reach them
// through MarshalJSON and UnmarshalJSON) and of the trace line. An Event
// inside a WAL record or a checkpoint is still written by encoding/json
// over Event's struct tags, which yields the same bytes
// (TestValueJSONKeepsItsBytes holds the two together). The encoder's output
// is what encoding/json produces for the same data held in a map, except
// that a float JSON has no number for (NaN, ±Inf), which encoding/json
// refuses, is the string "NaN", "+Inf" or "-Inf"; the decoder accepts
// what encoding/json accepts into those shapes except where
// noted on ParseJSON, and hands any token it does not want to interpret
// itself (a string with escapes or non-ASCII bytes, a float outside the
// plain decimal range, the value of a key it does not know) to encoding/json
// for that token alone.
//
// Attributes are decoded straight into the list an Event carries: members
// are appended as they are read into a buffer on the stack, one string
// comparison each confirms the order the encoder wrote them in, and the
// list is then allocated once at its exact size. Members in any other order
// are sorted into place afterwards. No map is built on either path.
//
// A Decoder reads a stream of lines in two passes over one grammar: a line
// in the layout AppendJSON writes is matched literal by literal, its tokens
// read by the scanner's own token readers, and any other line, at the first
// byte that differs, is read from its start by the scanner ParseJSON is,
// which alone defines what a line may hold and what each error says.
// FuzzWriterLayout holds the two passes equal.

// maxJSONDepth is encoding/json's nesting limit. Skipped members are held
// to it so that no line encoding/json rejects is accepted here.
const maxJSONDepth = 10000

var (
	eventKeys = []string{"type", "ts", "seq", "attrs"}
	valueKeys = []string{"int", "float", "str", "bool"}
)

// MarshalJSON implements json.Marshaler. Invalid values fail rather than
// serializing silently.
func (v Value) MarshalJSON() ([]byte, error) {
	return appendValueJSON(make([]byte, 0, 32), v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	val, i, err := parseValueJSON(data, skipSpace(data, 0), 1)
	if err != nil {
		return err
	}
	if i = skipSpace(data, i); i != len(data) {
		return jsonErr(data, i, "end of value")
	}
	*v = val
	return nil
}

// MarshalJSON implements json.Marshaler: the object {name: value}, which is
// what encoding/json writes for the same attributes held in a map. A list
// that is not in canonical form is an error.
func (l AttrList) MarshalJSON() ([]byte, error) {
	return appendAttrsJSON(make([]byte, 0, 48*len(l)+2), l)
}

// UnmarshalJSON implements json.Unmarshaler. It holds the object to the
// rules ParseJSON holds a line's attrs member to; null leaves l as it is,
// as encoding/json does for a slice or map field.
func (l *AttrList) UnmarshalJSON(data []byte) error {
	i := skipSpace(data, 0)
	if string(data[i:]) == "null" {
		return nil
	}
	list, i, err := parseAttrs(data, i, nil)
	if err != nil {
		return err
	}
	if i = skipSpace(data, i); i != len(data) {
		return jsonErr(data, i, "end of object")
	}
	*l = list
	return nil
}

// AppendJSON appends the JSON object for e to dst, byte for byte what
// encoding/json writes for an Event: attributes in name order, attrs left
// out when empty, <, >, & and U+2028/9 escaped. A float that is NaN or ±Inf,
// which JSON has no number for, is the string "NaN", "+Inf" or "-Inf". An
// attribute list out of canonical form is an error: ParseJSON would refuse
// the duplicate and read back a different list for the disorder.
func AppendJSON(dst []byte, e Event) ([]byte, error) {
	dst = append(dst, `{"type":`...)
	dst = appendJSONString(dst, e.Type)
	dst = append(dst, `,"ts":`...)
	dst = strconv.AppendInt(dst, e.TS, 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	if len(e.Attrs) > 0 {
		dst = append(dst, `,"attrs":`...)
		var err error
		if dst, err = appendAttrsJSON(dst, e.Attrs); err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

func appendAttrsJSON(dst []byte, l AttrList) ([]byte, error) {
	dst = append(dst, '{')
	for i, a := range l {
		if i > 0 {
			if prev := l[i-1].Name; prev >= a.Name {
				if prev == a.Name {
					return nil, fmt.Errorf("duplicate attribute %q", a.Name)
				}
				return nil, fmt.Errorf("attribute %q out of order after %q", a.Name, prev)
			}
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, a.Name)
		dst = append(dst, ':')
		var err error
		if dst, err = appendValueJSON(dst, a.Value); err != nil {
			return nil, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
	}
	return append(dst, '}'), nil
}

func appendValueJSON(dst []byte, v Value) ([]byte, error) {
	switch v.kind {
	case KindInt:
		dst = append(dst, `{"int":`...)
		dst = strconv.AppendInt(dst, v.int(), 10)
	case KindFloat:
		dst = append(dst, `{"float":`...)
		dst = appendFloatJSON(dst, v.float())
	case KindString:
		dst = append(dst, `{"str":`...)
		dst = appendJSONString(dst, v.s)
	case KindBool:
		dst = append(dst, `{"bool":`...)
		dst = strconv.AppendBool(dst, v.bool())
	default:
		return nil, fmt.Errorf("cannot marshal %s value", v.kind)
	}
	return append(dst, '}'), nil
}

// appendFloatJSON appends f as encoding/json writes a float64, or, for the
// values JSON has no number for, as the string "NaN", "+Inf" or "-Inf".
func appendFloatJSON(dst []byte, f float64) []byte {
	switch abs := math.Abs(f); {
	case f != f:
		return append(dst, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(dst, `"-Inf"`...)
	case abs == 0 || 1e-6 <= abs && abs < 1e21:
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	// The exponent form follows encoding/json's rules.
	b, _ := json.Marshal(f) // cannot fail for a finite float
	return append(dst, b...)
}

// JSONFloat is a float64 whose JSON form is a float Value's: a number, or
// the string "NaN", "+Inf" or "-Inf". Durable records that hold a bare
// float use it, so a NaN is as durable there as in an event.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) { return appendFloatJSON(nil, float64(f)), nil }

// UnmarshalJSON implements json.Unmarshaler.
func (f *JSONFloat) UnmarshalJSON(data []byte) error {
	v, i, err := parseFloat(data, skipSpace(data, 0))
	if err != nil {
		return err
	}
	if i = skipSpace(data, i); i != len(data) {
		return jsonErr(data, i, "end of value")
	}
	*f = JSONFloat(v)
	return nil
}

// appendJSONString quotes s. Anything encoding/json would escape (and
// every non-ASCII byte, which it may replace) goes through encoding/json.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // cannot fail for a string
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ParseJSON decodes one event object, the whole of data apart from
// surrounding white space, in a single pass. Members may come in any
// order; missing ones keep their zero value and unknown ones are skipped
// after a syntax check. Numbers follow the JSON grammar strictly: ts, seq
// and int take integer literals within range only, float any literal that
// fits a float64 or one of the strings "NaN", "+Inf" and "-Inf". Strings
// are copied out of data, so the caller may reuse
// it; the event type and the attribute names come from the name table
// (Intern), so a repeated name costs no allocation.
//
// Three inputs that encoding/json lets through are errors here, because
// each means the line was not written by this package's encoder and
// guessing which reading was meant would hide that: a known member given
// twice, null in place of the line or of a known member, and a key that
// matches a known one only after case folding.
func ParseJSON(data []byte) (Event, error) { return scanEvent(data, nil) }

// scanEvent is ParseJSON, serving names from d's caches when d is not nil.
func scanEvent(data []byte, d *Decoder) (Event, error) {
	var e Event
	var seen [4]bool // indexed like eventKeys
	i, more, err := openObject(data, skipSpace(data, 0))
	for more && err == nil {
		var key []byte
		if key, i, err = parseKey(data, i); err != nil {
			break
		}
		k := indexKey(eventKeys, key)
		if k >= 0 {
			if seen[k] {
				err = fmt.Errorf("duplicate member %q", key)
				break
			}
			seen[k] = true
		}
		switch k {
		case 0:
			var s []byte
			if s, i, err = scanString(data, i); err == nil {
				e.Type = d.typeName(s)
			}
		case 1:
			e.TS, i, err = parseInt(data, i)
		case 2:
			e.Seq, i, err = parseDigits(data, i)
		case 3:
			e.Attrs, i, err = parseAttrs(data, i, d)
		default:
			i, err = skipMember(data, i, 1, eventKeys, key)
		}
		if err == nil {
			i, more, err = nextMember(data, i)
		}
	}
	if err != nil {
		return Event{}, err
	}
	if i = skipSpace(data, i); i != len(data) {
		return Event{}, jsonErr(data, i, "end of line")
	}
	return e, nil
}

// Decoder reads a stream of trace lines, one ParseJSON at a time, keeping
// the names that repeat from line to line (see typeName and attrName). A
// zero Decoder is ready; it is not safe for concurrent use.
type Decoder struct {
	types [recentTypes]string
	names [recentTypes][namesPerType]string
	slot  int // the types entry of the last line
}

// Parse decodes one line as ParseJSON does, to the same Event or the same
// error. A line laid out as AppendJSON writes it is read by one straight
// pass over the writer's literals (parseLayout); at the first byte that
// differs the line is scanned again from its start, so the scanner remains
// the one definition of the grammar and of every error.
func (d *Decoder) Parse(data []byte) (Event, error) {
	if e, ok := d.parseLayout(data); ok {
		return e, nil
	}
	return scanEvent(data, d)
}

// parseLayout reads data if it holds the members AppendJSON writes, in
// its order and with no white space:
// {"type":S,"ts":N,"seq":N[,"attrs":{S:{"int"|"float"|"str"|"bool":V},…}]}
// with the attribute names strictly ascending. Every token is read by the
// scanner's own reader for it (scanString, parseInt, parseDigits,
// parseFloat, parseBool), so a token reads alike in both passes, and every
// line AppendJSON writes is read here. Anything else, including every line
// the scanner refuses, returns ok false.
func (d *Decoder) parseLayout(data []byte) (e Event, ok bool) {
	i, ok := token(data, 0, `{"type":`, tokStr)
	if !ok {
		return Event{}, false
	}
	s, i, err := scanString(data, i)
	if err != nil {
		return Event{}, false
	}
	e.Type = d.typeName(s)
	if i, ok = token(data, i, `,"ts":`, tokInt); !ok {
		return Event{}, false
	}
	if e.TS, i, err = parseInt(data, i); err != nil {
		return Event{}, false
	}
	if i, ok = token(data, i, `,"seq":`, tokUint); !ok {
		return Event{}, false
	}
	if e.Seq, i, err = parseDigits(data, i); err != nil {
		return Event{}, false
	}
	if string(data[i:]) == "}" {
		return e, true
	}
	if i, ok = token(data, i, `,"attrs":{`, tokStr); !ok {
		return Event{}, false
	}
	var buf [namesPerType]Attr // events carry a handful; more spill to the heap
	list := buf[:0]
	for {
		var a Attr
		if s, i, err = scanString(data, i); err != nil {
			return Event{}, false
		}
		a.Name = d.attrName(len(list), s)
		if len(list) > 0 && list[len(list)-1].Name >= a.Name {
			return Event{}, false
		}
		if a.Value, i, ok = layoutValue(data, i); !ok {
			return Event{}, false
		}
		list = append(list, a)
		if i, ok = token(data, i, `},`, tokStr); !ok {
			break
		}
	}
	if string(data[i:]) != "}}}" {
		return Event{}, false
	}
	e.Attrs = make(AttrList, len(list))
	copy(e.Attrs, list)
	return e, true
}

// layoutValue reads an attribute's value object, from the colon after its
// name to the value object's closing brace.
func layoutValue(data []byte, i int) (v Value, next int, ok bool) {
	var err error
	if next, ok = token(data, i, `:{"int":`, tokInt); ok {
		var n int64
		n, next, err = parseInt(data, next)
		v = Int(n)
	} else if next, ok = token(data, i, `:{"str":`, tokStr); ok {
		var s []byte
		s, next, err = scanString(data, next)
		v = Str(string(s))
	} else if next, ok = token(data, i, `:{"float":`, tokFloat); ok {
		var f float64
		f, next, err = parseFloat(data, next)
		v = Float(f)
	} else if next, ok = token(data, i, `:{"bool":`, tokBool); ok {
		var b bool
		b, next, err = parseBool(data, next)
		v = Bool(b)
	}
	return v, next, ok && err == nil
}

// The kinds of token parseLayout reads, as bits of startOf: byte c can
// start a token of kind k when startOf[c]&k is not 0.
const (
	tokStr = 1 << iota
	tokUint
	tokInt
	tokFloat
	tokBool
)

var startOf = [256]uint8{
	'"': tokStr | tokFloat, // a float may be "NaN", "+Inf" or "-Inf"
	'-': tokInt | tokFloat,
	'0': digit, '1': digit, '2': digit, '3': digit, '4': digit,
	'5': digit, '6': digit, '7': digit, '8': digit, '9': digit,
	't': tokBool, 'f': tokBool,
}

const digit = tokUint | tokInt | tokFloat

// token reports whether lit stands at data[i] followed by a byte that can
// start a token of kind, and the offset after lit. parseLayout calls a
// token reader only where its token can start, so a line it declines for
// white space or for another kind of token costs no error value.
func token(data []byte, i int, lit string, kind uint8) (int, bool) {
	j := i + len(lit)
	if len(data) <= j || string(data[i:j]) != lit || startOf[data[j]]&kind == 0 {
		return i, false
	}
	return j, true
}

// parseAttrs reads the attrs object opening at data[i] into a canonical
// list. An empty object gives a nil list, as a missing member does.
func parseAttrs(data []byte, i int, d *Decoder) (AttrList, int, error) {
	var buf [8]Attr // events carry a handful; more spill to the heap
	list := buf[:0]
	sorted := true
	i, more, err := openObject(data, i)
	for more && err == nil {
		var key []byte
		if key, i, err = parseKey(data, i); err != nil {
			break
		}
		name := d.attrName(len(list), key)
		var v Value
		if v, i, err = parseValueJSON(data, i, 3); err != nil {
			err = fmt.Errorf("attribute %q: %w", name, err)
			break
		}
		if n := len(list); n > 0 && list[n-1].Name >= name {
			sorted = false
		}
		list = append(list, Attr{name, v})
		i, more, err = nextMember(data, i)
	}
	if err != nil {
		return nil, i, err
	}
	if !sorted {
		// Sorting once at the end keeps a hostile line of many members
		// O(n log n), and brings a repeated name next to itself.
		sortAttrs(list)
		for j := 1; j < len(list); j++ {
			if list[j].Name == list[j-1].Name {
				return nil, i, fmt.Errorf("duplicate attribute %q", list[j].Name)
			}
		}
	}
	if len(list) == 0 {
		return nil, i, nil
	}
	return slices.Clone(list), i, nil
}

// parseValueJSON reads the tagged value object opening at data[i], itself
// at nesting level depth, and returns the offset after its closing brace.
func parseValueJSON(data []byte, i, depth int) (Value, int, error) {
	var v Value
	set := 0
	i, more, err := openObject(data, i)
	for more && err == nil {
		var key []byte
		if key, i, err = parseKey(data, i); err != nil {
			break
		}
		k := indexKey(valueKeys, key)
		if k >= 0 {
			set++
		}
		switch k {
		case 0:
			var n int64
			n, i, err = parseInt(data, i)
			v = Int(n)
		case 1:
			var f float64
			f, i, err = parseFloat(data, i)
			v = Float(f)
		case 2:
			var s []byte
			s, i, err = scanString(data, i)
			v = Str(string(s))
		case 3:
			var b bool
			b, i, err = parseBool(data, i)
			v = Bool(b)
		default:
			i, err = skipMember(data, i, depth, valueKeys, key)
		}
		if err == nil {
			i, more, err = nextMember(data, i)
		}
	}
	if err != nil {
		return Value{}, i, err
	}
	if set != 1 {
		return Value{}, i, fmt.Errorf("value must set exactly one of int/float/str/bool, got %d", set)
	}
	return v, i, nil
}

// jsonErr describes what was wanted at offset i and what stands there.
func jsonErr(data []byte, i int, want string) error {
	if i >= len(data) {
		return fmt.Errorf("offset %d: want %s, got end of input", i, want)
	}
	return fmt.Errorf("offset %d: want %s, got %q", i, want, data[i])
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
		i++
	}
	return i
}

// openObject steps over the '{' at data[i]. more reports that a key's
// opening quote stands at the returned offset; otherwise the object was
// empty and the offset is past its '}'.
func openObject(data []byte, i int) (next int, more bool, err error) {
	if i >= len(data) || data[i] != '{' {
		return i, false, jsonErr(data, i, "'{'")
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == '}' {
		return i + 1, false, nil
	}
	return i, true, nil
}

// nextMember steps from the end of a member's value to the next key (more)
// or past the closing '}'.
func nextMember(data []byte, i int) (next int, more bool, err error) {
	i = skipSpace(data, i)
	if i < len(data) && data[i] == '}' {
		return i + 1, false, nil
	}
	if i >= len(data) || data[i] != ',' {
		return i, false, jsonErr(data, i, "',' or '}'")
	}
	return skipSpace(data, i+1), true, nil
}

// parseKey reads a key and its colon and returns the offset of the value.
func parseKey(data []byte, i int) (key []byte, next int, err error) {
	if key, i, err = scanString(data, i); err != nil {
		return nil, i, err
	}
	if i = skipSpace(data, i); i >= len(data) || data[i] != ':' {
		return nil, i, jsonErr(data, i, "':'")
	}
	return key, skipSpace(data, i+1), nil
}

func indexKey(keys []string, key []byte) int {
	for k, name := range keys {
		if string(key) == name {
			return k
		}
	}
	return -1
}

// scanString reads the string token opening at data[i] and returns its
// content and the offset after the closing quote. Printable ASCII without
// a backslash is returned as a sub-slice of data; any other token is
// decoded by encoding/json into a slice of its own.
func scanString(data []byte, i int) (s []byte, next int, err error) {
	if i >= len(data) || data[i] != '"' {
		return nil, i, jsonErr(data, i, "'\"'")
	}
	for j := i + 1; j < len(data); j++ {
		c := data[j]
		if c == '"' {
			return data[i+1 : j], j + 1, nil
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			break
		}
	}
	end, err := stringEnd(data, i)
	if err != nil {
		return nil, i, err
	}
	var decoded string
	if err := json.Unmarshal(data[i:end], &decoded); err != nil {
		return nil, i, fmt.Errorf("offset %d: %w", i, err)
	}
	return []byte(decoded), end, nil
}

// stringEnd returns the offset after the quote closing the string that
// opens at data[i], without checking what lies between.
func stringEnd(data []byte, i int) (int, error) {
	for j := i + 1; j < len(data); j++ {
		switch data[j] {
		case '\\':
			j++
		case '"':
			return j + 1, nil
		}
	}
	return i, fmt.Errorf("offset %d: unterminated string", i)
}

// parseDigits reads 0|[1-9][0-9]* into a uint64 and refuses a fraction or
// exponent after it, which encoding/json refuses for an integer field too.
func parseDigits(data []byte, i int) (uint64, int, error) {
	start := i
	var n uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		d := uint64(data[i] - '0')
		// Nineteen digits fit; only a twentieth or later can overflow.
		if i-start >= 19 && n > (math.MaxUint64-d)/10 {
			return 0, start, fmt.Errorf("offset %d: integer out of range", start)
		}
		n = n*10 + d
	}
	if i == start {
		return 0, i, jsonErr(data, i, "a digit")
	}
	if data[start] == '0' && i > start+1 {
		return 0, start, fmt.Errorf("offset %d: leading zero", start)
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, start, fmt.Errorf("offset %d: want an integer, got a fraction or exponent", start)
	}
	return n, i, nil
}

func parseInt(data []byte, i int) (int64, int, error) {
	start := i
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	n, i, err := parseDigits(data, i)
	if err != nil {
		return 0, i, err
	}
	if neg && n <= 1<<63 {
		return -int64(n), i, nil
	}
	if !neg && n <= math.MaxInt64 {
		return int64(n), i, nil
	}
	return 0, start, fmt.Errorf("offset %d: integer out of range", start)
}

// parseFloat checks the number token at data[i] against the JSON grammar
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and only then converts it:
// strconv.ParseFloat alone would take Inf, NaN, hex and underscores. A
// string token is read as one of nonFinite's.
func parseFloat(data []byte, i int) (float64, int, error) {
	if i < len(data) && data[i] == '"' {
		s, next, err := scanString(data, i)
		if f, ok := nonFinite[string(s)]; ok && err == nil {
			return f, next, nil
		}
		return 0, i, fmt.Errorf("offset %d: a float string must be NaN, +Inf or -Inf", i)
	}
	start := i
	if i < len(data) && data[i] == '-' {
		i++
	}
	end := skipDigits(data, i)
	if end == i {
		return 0, i, jsonErr(data, i, "a digit")
	}
	if data[i] == '0' && end > i+1 {
		return 0, start, fmt.Errorf("offset %d: leading zero", start)
	}
	if i = end; i < len(data) && data[i] == '.' {
		if end = skipDigits(data, i+1); end == i+1 {
			return 0, end, jsonErr(data, end, "a digit")
		}
		i = end
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if end = skipDigits(data, i); end == i {
			return 0, i, jsonErr(data, i, "a digit")
		}
		i = end
	}
	f, err := strconv.ParseFloat(string(data[start:i]), 64)
	if err != nil {
		return 0, start, fmt.Errorf("offset %d: %w", start, err)
	}
	return f, i, nil
}

// nonFinite are the floats JSON has no number for, by their string form.
var nonFinite = map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

func parseBool(data []byte, i int) (bool, int, error) {
	switch rest := data[i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		return true, i + 4, nil
	case len(rest) >= 5 && string(rest[:5]) == "false":
		return false, i + 5, nil
	}
	return false, i, jsonErr(data, i, "true or false")
}

// skipMember steps over the value of a key that is none of known, and
// refuses a key that encoding/json would have folded onto one of them. The
// value opens at data[i] inside a container at nesting level depth. Its
// extent is found by matching quotes and brackets only and then checked
// by encoding/json, so a line with a syntax error anywhere is an error.
func skipMember(data []byte, i, depth int, known []string, key []byte) (int, error) {
	for _, name := range known {
		if strings.EqualFold(string(key), name) {
			return i, fmt.Errorf("member %q differs from %q only in case", key, name)
		}
	}
	start := i
	switch {
	case i >= len(data):
		return i, jsonErr(data, i, "a value")
	case data[i] == '"':
		end, err := stringEnd(data, i)
		if err != nil {
			return i, err
		}
		i = end
	case data[i] == '{' || data[i] == '[':
		for open := 0; ; {
			if i >= len(data) {
				return start, fmt.Errorf("offset %d: unterminated value", start)
			}
			switch data[i] {
			case '"':
				end, err := stringEnd(data, i)
				if err != nil {
					return i, err
				}
				i = end
				continue
			case '{', '[':
				if open++; depth+open > maxJSONDepth {
					return start, fmt.Errorf("offset %d: nested deeper than %d", start, maxJSONDepth)
				}
			case '}', ']':
				open--
			}
			if i++; open == 0 {
				break
			}
		}
	default:
		for i < len(data) && strings.IndexByte(",}] \t\r\n", data[i]) < 0 {
			i++
		}
	}
	if !json.Valid(data[start:i]) {
		return start, fmt.Errorf("offset %d: member %q: invalid value", start, key)
	}
	return i, nil
}
