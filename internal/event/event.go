// Package event defines the event model shared by every component of the
// library: typed events carrying a logical application timestamp, an arrival
// sequence number, and a flat attribute map of dynamically typed values.
//
// Timestamps are logical milliseconds (int64). Application time (TS) is
// assigned by the event source and may disagree arbitrarily with arrival
// order; the arrival sequence (Seq) is assigned by the ingesting engine and
// is strictly monotone. All ordering comparisons in the pattern semantics
// are on (TS, Seq) pairs with TS dominant.
package event

import (
	"sort"
	"strconv"
)

// Time is a logical application timestamp in milliseconds.
type Time = int64

// Seq is an arrival sequence number assigned at ingestion.
type Seq = uint64

// Event is a single occurrence on the stream. Events are immutable once
// ingested; operators must not mutate Attrs in place.
type Event struct {
	// Type is the event type name, e.g. "SHELF" or "TRADE".
	Type string `json:"type"`
	// TS is the application timestamp (logical milliseconds).
	TS Time `json:"ts"`
	// Seq is the arrival sequence number; 0 until assigned by an ingestor.
	Seq Seq `json:"seq"`
	// Attrs carries the event payload.
	Attrs Attrs `json:"attrs,omitempty"`
}

// Attrs is the payload of an event: attribute name to value.
type Attrs map[string]Value

// New constructs an event with a copy of the given attributes.
func New(typ string, ts Time, attrs Attrs) Event {
	cp := make(Attrs, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	return Event{Type: typ, TS: ts, Attrs: cp}
}

// Attr returns the named attribute and whether it is present.
func (e Event) Attr(name string) (Value, bool) {
	v, ok := e.Attrs[name]
	return v, ok
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
// TYPE@ts#seq{name=value, ...} with the names in byte order.
func AppendEvent(dst []byte, e Event) []byte {
	dst = append(dst, e.Type...)
	dst = append(dst, '@')
	dst = strconv.AppendInt(dst, e.TS, 10)
	dst = append(dst, '#')
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, '{')
	var buf [8]string
	for i, k := range sortedNames(buf[:0], e.Attrs) {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = AppendValue(dst, e.Attrs[k])
	}
	return append(dst, '}')
}

// sortedNames returns the attribute names in byte order, in the empty buf
// when they fit. Events carry a handful of attributes, so an insertion sort
// into the caller's stack buffer beats sort.Strings and allocates nothing.
// An event with more names than buf holds (a decoded line may carry any
// number) goes to sort.Strings, which keeps it O(n log n).
func sortedNames(buf []string, attrs Attrs) []string {
	if len(attrs) > cap(buf) {
		for k := range attrs {
			buf = append(buf, k)
		}
		sort.Strings(buf)
		return buf
	}
	for k := range attrs {
		buf = append(buf, k)
		for i := len(buf) - 1; i > 0 && buf[i] < buf[i-1]; i-- {
			buf[i], buf[i-1] = buf[i-1], buf[i]
		}
	}
	return buf
}

// Clone returns a deep copy of the event.
func (e Event) Clone() Event {
	cp := e
	cp.Attrs = make(Attrs, len(e.Attrs))
	for k, v := range e.Attrs {
		cp.Attrs[k] = v
	}
	return cp
}

// ByTime sorts events by (TS, Seq). It implements sort.Interface.
type ByTime []Event

func (s ByTime) Len() int           { return len(s) }
func (s ByTime) Less(i, j int) bool { return s[i].Before(s[j]) }
func (s ByTime) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// SortByTime sorts the slice in place by (TS, Seq).
func SortByTime(events []Event) {
	sort.Sort(ByTime(events))
}

// IsSortedByTime reports whether events are in nondecreasing (TS, Seq) order.
func IsSortedByTime(events []Event) bool {
	return sort.IsSorted(ByTime(events))
}
