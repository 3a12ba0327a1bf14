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
// The Reader decodes with an internal/event Decoder, in two passes over one
// grammar. A line in the Writer's layout (members in the order above, no
// white space, attribute names ascending) is matched literal by literal in
// one straight pass, each token read by the scanner's own reader for it,
// so every line the Writer writes takes this pass. Any other line is read
// from its start, at the first byte that differs, by internal/event's
// single-pass scanner, which alone defines the grammar and every error;
// FuzzWriterLayout holds the two passes to the same event. Attributes go
// straight into the sorted list an Event carries, allocated once per line
// at its size, and no map is built on the way. The event type and the
// attribute names are the strings of internal/event's process-wide name
// table, the one a compiled query's names come from, served first from the
// Decoder's caches of recent types and names, so a repeated name costs no
// allocation and a predicate finds it by address. String values are
// copied out of the line.
// The Reader returns exactly the event encoding/json would decode from the
// line, its attributes sorted by name, or an error, and is stricter than
// encoding/json in three documented ways, each an error: a known member or
// an attribute name given twice (encoding/json keeps the last), null in
// place of the line or of a known member (encoding/json keeps the zero
// value), and a key that equals a known one only after case folding, such
// as "TS" (encoding/json matches it).
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

// Reader decodes events from a stream.
type Reader struct {
	scanner *bufio.Scanner
	dec     event.Decoder
	line    int
}

// NewReader wraps r. Lines up to 16 MiB are accepted.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{scanner: sc}
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
		e, err := r.dec.Parse(raw)
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
