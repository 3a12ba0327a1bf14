// Package event defines the event model shared by every component of the
// library: typed events carrying a logical application timestamp, an arrival
// sequence number, and a flat list of named, dynamically typed attributes.
//
// Timestamps are logical milliseconds (int64). Application time (TS) is
// assigned by the event source and may disagree arbitrarily with arrival
// order; the arrival sequence (Seq) is assigned by the ingesting engine and
// is strictly monotone. All ordering comparisons in the pattern semantics
// are on (TS, Seq) pairs with TS dominant.
package event

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Time is a logical application timestamp in milliseconds.
type Time = int64

// Seq is an arrival sequence number assigned at ingestion.
type Seq = uint64

// Event is a single occurrence on the stream. Events are immutable once
// ingested; copies of an event share one attribute list, so operators must
// not mutate Attrs in place (Clone first).
type Event struct {
	// Type is the event type name, e.g. "SHELF" or "TRADE".
	Type string `json:"type"`
	// TS is the application timestamp (logical milliseconds).
	TS Time `json:"ts"`
	// Seq is the arrival sequence number; 0 until assigned by an ingestor.
	Seq Seq `json:"seq"`
	// Attrs carries the event payload; nil when the event has none.
	Attrs AttrList `json:"attrs,omitempty"`
}

// Attr is one named attribute of an event.
type Attr struct {
	Name  string
	Value Value
}

// AttrList is the payload of an event: its attributes, strictly sorted by
// name (byte order, no name twice). That is the canonical form: the order
// every rendering and every encoded byte uses, so nothing sorts per event.
// New, Attrs.List and the decoder produce it and Clone keeps it; a list
// built by hand should be in it too, and the JSON encoder refuses one that
// is not.
type AttrList []Attr

// Attrs is the literal a caller writes an event's attributes in, name to
// value; New and List turn it into the AttrList an Event carries.
type Attrs map[string]Value

// List returns the attributes as a canonical list, nil when there are none.
// Its names are the name table's strings (Intern).
func (a Attrs) List() AttrList {
	if len(a) == 0 {
		return nil
	}
	list := make(AttrList, 0, len(a))
	for name, v := range a {
		list = append(list, Attr{Intern(name), v})
	}
	sortAttrs(list)
	return list
}

func sortAttrs(list AttrList) {
	slices.SortFunc(list, func(a, b Attr) int { return strings.Compare(a.Name, b.Name) })
}

// scanWidth is the longest run Get scans.
const scanWidth = 8

// Get returns the named attribute and whether it is present. Events carry
// a handful of attributes, so this is a scan and no hash, and it runs to the
// end of the list, which keeps it right on a hand-built list that is not
// sorted. Each name is tested for identity before content: the decoder and
// the compiler take their names from one table (Intern), so a hit is
// usually the same string, found by comparing length and address, and any
// other equal name is still found by its bytes. Only a list longer than
// scanWidth is first halved by its order down to the one run that can hold
// the name (BenchmarkAttrGet: the plain scan is level with a map lookup at
// eight attributes and four times behind at 32), so a hand-built list that
// long has to be canonical. Both loops are small enough for Get to inline
// into a compiled predicate.
func (l AttrList) Get(name string) (Value, bool) {
	for len(l) > scanWidth {
		if mid := len(l) / 2; l[mid].Name <= name {
			l = l[mid:]
		} else {
			l = l[:mid]
		}
	}
	for i := range l {
		if n := l[i].Name; len(n) == len(name) && unsafe.StringData(n) == unsafe.StringData(name) || n == name {
			return l[i].Value, true
		}
	}
	return Value{}, false
}

// New constructs an event carrying the given attributes.
func New(typ string, ts Time, attrs Attrs) Event {
	return Event{Type: typ, TS: ts, Attrs: attrs.List()}
}

// Attr returns the named attribute and whether it is present.
func (e Event) Attr(name string) (Value, bool) {
	return e.Attrs.Get(name)
}

// Before reports whether e is strictly earlier than other in the total
// order used by the pattern semantics: application timestamp first,
// arrival sequence as tiebreaker.
func (e Event) Before(other Event) bool {
	if e.TS != other.TS {
		return e.TS < other.TS
	}
	return e.Seq < other.Seq
}

// String renders the event compactly for logs and test failures.
func (e Event) String() string {
	var buf [128]byte
	return string(AppendEvent(buf[:0], e))
}

// AppendEvent appends the text Event.String returns for e to dst:
// TYPE@ts#seq{name=value, ...} with the attributes in list order.
func AppendEvent(dst []byte, e Event) []byte {
	dst = append(dst, e.Type...)
	dst = append(dst, '@')
	dst = strconv.AppendInt(dst, e.TS, 10)
	dst = append(dst, '#')
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, '{')
	for i, a := range e.Attrs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, a.Name...)
		dst = append(dst, '=')
		dst = AppendValue(dst, a.Value)
	}
	return append(dst, '}')
}

// Clone returns a deep copy of the event.
func (e Event) Clone() Event {
	e.Attrs = slices.Clone(e.Attrs)
	return e
}

// compare is Before as a three-way comparison.
func compare(a, b Event) int { return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Seq, b.Seq)) }

// SortByTime sorts the slice in place by (TS, Seq).
func SortByTime(events []Event) { slices.SortFunc(events, compare) }

// IsSortedByTime reports whether events are in nondecreasing (TS, Seq) order.
func IsSortedByTime(events []Event) bool { return slices.IsSortedFunc(events, compare) }
