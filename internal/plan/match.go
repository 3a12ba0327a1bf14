package plan

import (
	"strconv"
	"strings"

	"oostream/internal/event"
	"oostream/internal/provenance"
)

// MatchKind distinguishes normal results from speculative revisions.
type MatchKind int

// Match kinds. Insert is the ordinary (and default) kind; Retract is only
// produced by the speculative engine to compensate premature output.
const (
	Insert MatchKind = iota + 1
	Retract
)

// String names the kind.
func (k MatchKind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Retract:
		return "retract"
	default:
		return "matchkind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Match is one pattern occurrence: one event per positive component, in
// sequence order.
type Match struct {
	// Kind is Insert for results, Retract for compensations.
	Kind MatchKind
	// Events holds the matched events, one per positive position.
	Events []event.Event
	// Fields holds the projected RETURN values, aligned with the plan's
	// Return columns; nil when the query has no RETURN clause.
	Fields []event.Value
	// EmitSeq is the arrival sequence number of the event whose processing
	// emitted this match, used for latency accounting.
	EmitSeq event.Seq
	// EmitClock is the engine's max-seen timestamp at emission.
	EmitClock event.Time
	// Prov is the match's lineage record; nil unless the engine was built
	// with Config.Provenance. It is excluded from multiset comparison
	// (Key/SameResults) — two matches over the same events are the same
	// match regardless of how their construction was traced.
	Prov *provenance.Record
	// Query is the id of the owning query when the match was produced by a
	// multi-query Set (internal/queryset); empty for single-query engines.
	// Like Prov it is excluded from Key/SameResults: identity is the event
	// set, and per-query comparison filters on this field first.
	Query string
	// Agg is the window value for aggregate matches, nil for pattern
	// matches. Aggregate matches carry a single placeholder window event in
	// Events (type WindowType, TS = window end) so positional accessors and
	// emission restamping work unchanged.
	Agg *AggValue
}

// Key is a canonical identity for the match: the arrival sequence numbers of
// its events. Two matches over the same events have equal keys regardless of
// arrival interleaving, so keys implement exactly-once checks and multiset
// comparison between engines.
func (m Match) Key() string {
	if m.Agg != nil {
		return m.Agg.key()
	}
	var b strings.Builder
	for i, e := range m.Events {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.FormatUint(e.Seq, 10))
	}
	return b.String()
}

// First returns the earliest event of the match.
func (m Match) First() event.Event { return m.Events[0] }

// Last returns the latest event of the match.
func (m Match) Last() event.Event { return m.Events[len(m.Events)-1] }

// Span is the time extent Last.TS − First.TS.
func (m Match) Span() event.Time { return m.Last().TS - m.First().TS }

// String renders the match for logs and test failures: AppendText into a
// stack-seeded buffer, so it costs the returned string only.
func (m Match) String() string {
	var buf [512]byte
	dst, _ := m.AppendText(buf[:0])
	return string(dst)
}

// AppendText appends the line esprun prints per result to dst and returns
// the extended buffer (encoding.TextAppender); the error is always nil. Into
// a buffer with room it allocates nothing.
func (m Match) AppendText(dst []byte) ([]byte, error) {
	if m.Kind == Retract {
		dst = append(dst, '-')
	}
	dst = append(dst, '[')
	if m.Agg != nil {
		dst = m.Agg.appendText(dst)
	} else {
		for i := range m.Events {
			if i > 0 {
				dst = append(dst, "; "...)
			}
			dst = event.AppendEvent(dst, m.Events[i])
		}
	}
	return append(dst, ']'), nil
}

// KeySet collects the keys of a slice of matches into a multiset
// (key -> count). Retractions subtract. Each match's key is rendered once.
func KeySet(matches []Match) map[string]int {
	out := make(map[string]int, len(matches))
	for _, m := range matches {
		k, d := m.Key(), 1
		if m.Kind == Retract {
			d = -1
		}
		if out[k] += d; out[k] == 0 {
			delete(out, k)
		}
	}
	return out
}

// SameResults reports whether two match slices are equal as multisets of
// keys (after applying retractions), and returns a human-readable diff of
// up to a few divergent keys when they are not.
func SameResults(a, b []Match) (bool, string) {
	ka, kb := KeySet(a), KeySet(b)
	var diff []string
	for k, n := range ka {
		if kb[k] != n {
			diff = append(diff, "key "+k+": "+strconv.Itoa(n)+" vs "+strconv.Itoa(kb[k]))
		}
	}
	for k, n := range kb {
		if _, seen := ka[k]; !seen {
			diff = append(diff, "key "+k+": 0 vs "+strconv.Itoa(n))
		}
	}
	if len(diff) == 0 {
		return true, ""
	}
	if len(diff) > 8 {
		diff = append(diff[:8], "…")
	}
	return false, strings.Join(diff, "\n")
}
