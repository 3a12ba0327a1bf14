package oostream

import (
	"fmt"
)

// Composer turns matches into composite events, the CEP "transformation"
// stage: a query's RETURN columns become the attributes of a new event
// type, timestamped at the match's last element, so one query's detections
// feed the next query's pattern (hierarchical CEP).
//
// Composite events inherit stream time from their matches, so disorder
// propagates naturally: a match completed by a late event yields a
// composite event that is itself late by the same amount. Stage-two
// engines therefore need a disorder bound of at least the stage-one bound
// (plus stage-one sealing delay for negation queries).
type Composer struct {
	typeName string
	cols     []string
}

// NewComposer builds a composer emitting events of the given type from
// matches of q. The query must have a RETURN clause; its column names
// become the attribute names.
func NewComposer(typeName string, q *Query) (*Composer, error) {
	if typeName == "" {
		return nil, fmt.Errorf("composite type name must not be empty")
	}
	if len(q.plan.Return) == 0 {
		return nil, fmt.Errorf("query has no RETURN clause; composite events need attributes")
	}
	cols := make([]string, len(q.plan.Return))
	for i, col := range q.plan.Return {
		cols[i] = col.Name
	}
	return &Composer{typeName: typeName, cols: cols}, nil
}

// TypeName returns the composite event type.
func (c *Composer) TypeName() string { return c.typeName }

// Columns returns the attribute names, in RETURN order.
func (c *Composer) Columns() []string {
	out := make([]string, len(c.cols))
	copy(out, c.cols)
	return out
}

// Event converts one match. Retractions are rejected: a downstream engine
// cannot un-see an event, so speculative stage-one output cannot be
// chained — use the native (conservative) strategy upstream.
func (c *Composer) Event(m Match) (Event, error) {
	if m.Kind == Retract {
		return Event{}, fmt.Errorf("cannot compose a retraction; chain from a conservative strategy")
	}
	if len(m.Fields) != len(c.cols) {
		return Event{}, fmt.Errorf("match has %d fields, composer expects %d", len(m.Fields), len(c.cols))
	}
	attrs := make(Attrs, len(c.cols))
	for i, name := range c.cols {
		attrs[name] = m.Fields[i]
	}
	return NewEvent(c.typeName, m.Last().TS, attrs), nil
}

// Chain wires a two-stage detection: stage-one matches become composite
// events processed by the stage-two engine, and stage-two's matches are
// returned. Both engines are flushed. Composite events receive sequence
// numbers from the stage-two engine's auto-assignment, offset past the
// input's to keep them unique.
func Chain(stage1 *Engine, composer *Composer, stage2 *Engine, events []Event) ([]Match, error) {
	var out []Match
	feed := func(matches []Match) error {
		for _, m := range matches {
			ce, err := composer.Event(m)
			if err != nil {
				return err
			}
			out = append(out, stage2.Process(ce)...)
		}
		return nil
	}
	for _, e := range events {
		if err := feed(stage1.Process(e)); err != nil {
			return nil, err
		}
	}
	if err := feed(stage1.Flush()); err != nil {
		return nil, err
	}
	return append(out, stage2.Flush()...), nil
}
