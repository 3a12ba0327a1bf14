package event

import (
	"maps"
	"strings"
	"sync"
	"sync/atomic"
)

// Event-type and attribute names repeat on every event, and the query
// compiler knows every name a plan reads. Both take their strings from one
// process-wide table, so a name the decoder reads and the same name in a
// compiled predicate are one string, and AttrList.Get finds it by its
// address before it compares a byte. The table is bounded in entries and in
// name length: past the bound a name keeps a string of its own and is found
// by its bytes, and a stream with unbounded name cardinality pays one
// allocation per name, as a decoder without a table would. What the table
// holds never changes an answer, only how fast a lookup finds it, so sharing
// it across engines and tests is safe.
const (
	maxNames   = 256
	maxNameLen = 64
)

// names is read without a lock: a writer copies the map, adds to the copy
// and publishes it, so a reader's map never changes under it.
var (
	names   atomic.Pointer[map[string]string]
	namesMu sync.Mutex
)

func init() { names.Store(&map[string]string{}) }

// Intern returns the table's string for name, adding name when there is
// room. A caller that stores a name for lookups (a compiled operand, a key
// attribute) stores what Intern returns.
func Intern(name string) string {
	if s, ok := (*names.Load())[name]; ok {
		return s
	}
	return addName(strings.Clone(name))
}

// internBytes is Intern for a name the decoder holds as bytes; a name the
// table has costs no allocation.
func internBytes(b []byte) string {
	if s, ok := (*names.Load())[string(b)]; ok {
		return s
	}
	return addName(string(b))
}

// addName adds s unless the table is full, s is too long, or another writer
// added it first, and returns the table's string for it, or s.
func addName(s string) string {
	if len(s) > maxNameLen {
		return s
	}
	namesMu.Lock()
	defer namesMu.Unlock()
	old := *names.Load()
	if c, ok := old[s]; ok {
		return c
	}
	if len(old) >= maxNames {
		return s
	}
	m := maps.Clone(old)
	m[s] = s
	names.Store(&m)
	return s
}

// A Decoder keeps the names of the lines it read last, so the next line
// finds its names without a hash: a few recent event types, and for each
// the attribute name last read at each of the first namesPerType positions
// of its list, which on a stream of one writer's events is the same name
// line after line. Both hold what the table returned, so a cached name is
// still the table's string and a compiled predicate still finds it by
// address. Values are not cached: each string value is copied out.
const (
	recentTypes  = 4
	namesPerType = 8
)

// typeName returns the table's string for an event type, and makes its
// slot the one attrName reads. A nil d reads the table alone, as does
// attrName.
func (d *Decoder) typeName(b []byte) string {
	if d == nil {
		return internBytes(b)
	}
	for k, t := range d.types {
		if string(b) == t {
			d.slot = k
			return t
		}
	}
	t := internBytes(b)
	d.slot = (d.slot + 1) % recentTypes
	d.types[d.slot] = t
	d.names[d.slot] = [namesPerType]string{}
	return t
}

// attrName returns the table's string for the name of the k-th attribute
// of a line of the last type read.
func (d *Decoder) attrName(k int, b []byte) string {
	if d == nil || k >= namesPerType {
		return internBytes(b)
	}
	names := &d.names[d.slot]
	if n := names[k]; string(b) == n {
		return n
	}
	n := internBytes(b)
	names[k] = n
	return n
}
