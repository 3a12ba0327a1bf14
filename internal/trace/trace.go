// Package trace serializes event streams as JSON Lines, one event per
// line, for the command-line tools (espgen writes traces, esprun replays
// them). The format keeps arrival order — a shuffled trace replayed from a
// file reproduces the disorder exactly — and round-trips every value kind.
//
// # Format
//
//	line   = ws "{" [ member { "," member } ] "}" ws
//	member = "type"  ":" string          event type, "" when absent
//	       | "ts"    ":" integer         int64, 0 when absent
//	       | "seq"   ":" natural         uint64, no sign, 0 when absent
//	       | "attrs" ":" "{" [ name ":" value { "," name ":" value } ] "}"
//	       | string  ":" any JSON value  unknown key: checked, then skipped
//	value  = "{" tag { "," string ":" any } "}"   exactly one tag, unknown keys skipped
//	tag    = "int" ":" integer | "float" ":" number | "str" ":" string | "bool" ":" ( "true" | "false" )
//
// Members come in any order with JSON white space anywhere between tokens;
// an empty or white-space-only line is skipped. integer is
// -?(0|[1-9][0-9]*) within int64, number is any JSON number literal that
// fits a float64 (no Inf, NaN, hex or underscores), string is any JSON
// string. The Writer emits members in the order above with the attributes
// in the order of the event's list, which is by name, byte for byte as
// encoding/json would write them from a map; it returns an error, and
// writes nothing, for a hand-built list that is out of order or names an
// attribute twice.
//
// The Reader decodes with internal/event's single-pass scanner and has no
// second, reflection-based path. Attributes go straight into the sorted
// list an Event carries, allocated once per line at its size: one string
// comparison per name confirms the order the Writer wrote, members in any
// other order are sorted afterwards, and no map is built on the way. It
// returns exactly the event encoding/json would decode from the line, its
// attributes sorted by name, or an error, and is stricter
// than encoding/json in three documented ways, each an error: a known
// member or an attribute name given twice (encoding/json keeps the last),
// null in place of the line or of a known member (encoding/json keeps the
// zero value), and a key that equals a known one only after case folding,
// such as "TS" (encoding/json matches it).
package trace

import (
	"bufio"
	"fmt"
	"io"

	"oostream/internal/event"
)

// Writer encodes events to a stream.
type Writer struct {
	bw  *bufio.Writer
	buf []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Write appends one event.
func (w *Writer) Write(e event.Event) error {
	buf, err := event.AppendJSON(w.buf[:0], e)
	if err != nil {
		return err
	}
	w.buf = append(buf, '\n')
	_, err = w.bw.Write(w.buf)
	return err
}

// WriteAll appends a slice of events.
func (w *Writer) WriteAll(events []event.Event) error {
	for _, e := range events {
		if err := w.Write(e); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered output; call before closing the underlying file.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Event-type and attribute names repeat on every line of a trace, so the
// Reader hands out one string per distinct name. The table is bounded in
// entries and in name length: a stream with unbounded name cardinality
// fills it once and from then on pays one allocation per name, as a reader
// without a table would.
const (
	maxInterned    = 64
	maxInternedLen = 64
)

// Reader decodes events from a stream.
type Reader struct {
	scanner *bufio.Scanner
	line    int
	names   map[string]string
}

// NewReader wraps r. Lines up to 16 MiB are accepted.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{scanner: sc, names: make(map[string]string)}
}

// intern returns the string of a name, from the table when it is there.
func (r *Reader) intern(b []byte) string {
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(r.names) < maxInterned && len(s) <= maxInternedLen {
		r.names[s] = s
	}
	return s
}

// Read returns the next event, or io.EOF at end of stream. A decode error
// names the line; the Reader can go on to the next line after it.
func (r *Reader) Read() (event.Event, error) {
	for r.scanner.Scan() {
		r.line++
		raw := r.scanner.Bytes()
		if blank(raw) {
			continue
		}
		e, err := event.ParseJSON(raw, r.intern)
		if err != nil {
			return event.Event{}, fmt.Errorf("line %d: %w", r.line, err)
		}
		return e, nil
	}
	if err := r.scanner.Err(); err != nil {
		// The scanner failed on the line after the last one it delivered
		// (too long, or the underlying reader broke).
		return event.Event{}, fmt.Errorf("line %d: %w", r.line+1, err)
	}
	return event.Event{}, io.EOF
}

// blank reports whether line holds JSON white space only.
func blank(line []byte) bool {
	for _, c := range line {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// ReadAll consumes the remaining events.
func (r *Reader) ReadAll() ([]event.Event, error) {
	var out []event.Event
	for {
		e, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}
