package event

import (
	"fmt"
	"sort"
)

// Schema declares the event types a query or workload uses and, per type,
// the attributes with their kinds. Schemas make attribute references in
// queries checkable at compile time instead of failing silently at runtime.
type Schema struct {
	types map[string]TypeDef
}

// TypeDef describes one event type.
type TypeDef struct {
	// Name is the event type name.
	Name string
	// Fields maps attribute name to its kind.
	Fields map[string]Kind
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{types: make(map[string]TypeDef)}
}

// Declare registers an event type. Redeclaring a type replaces it.
func (s *Schema) Declare(name string, fields map[string]Kind) {
	cp := make(map[string]Kind, len(fields))
	for k, v := range fields {
		cp[k] = v
	}
	s.types[name] = TypeDef{Name: name, Fields: cp}
}

// Type returns the definition of an event type.
func (s *Schema) Type(name string) (TypeDef, bool) {
	t, ok := s.types[name]
	return t, ok
}

// Field returns the declared kind of typ.attr.
func (s *Schema) Field(typ, attr string) (Kind, bool) {
	t, ok := s.types[typ]
	if !ok {
		return KindInvalid, false
	}
	k, ok := t.Fields[attr]
	return k, ok
}

// Types returns the declared type names in sorted order.
func (s *Schema) Types() []string {
	names := make([]string, 0, len(s.types))
	for n := range s.types {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks an event against the schema: the type must be declared and
// every declared field must be present with the declared kind. Extra fields
// are allowed (events may carry transport metadata).
func (s *Schema) Validate(e Event) error {
	t, ok := s.types[e.Type]
	if !ok {
		return fmt.Errorf("event type %q not declared", e.Type)
	}
	for name, kind := range t.Fields {
		v, ok := e.Attr(name)
		if !ok {
			return fmt.Errorf("event %s: missing attribute %q", e.Type, name)
		}
		if v.Kind() != kind {
			// Int is acceptable where float is declared; everything else
			// must match exactly.
			if !(kind == KindFloat && v.Kind() == KindInt) {
				return fmt.Errorf("event %s: attribute %q has kind %s, want %s",
					e.Type, name, v.Kind(), kind)
			}
		}
	}
	return nil
}
