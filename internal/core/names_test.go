package core

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"oostream/internal/event"
	"oostream/internal/recovery"
	"oostream/internal/trace"
)

// operandNames collects the attribute names a compiled predicate's program
// reads, by walking its unexported instructions.
func operandNames(t *testing.T, pred any) []string {
	t.Helper()
	var out []string
	code := reflect.ValueOf(pred).Elem().FieldByName("code")
	for i := 0; i < code.Len(); i++ {
		for _, side := range []string{"a", "b"} {
			if attr := code.Index(i).FieldByName(side).FieldByName("attr"); attr.String() != "" {
				out = append(out, attr.String()) // the field's own string header
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no operand names found: the walk checks nothing")
	}
	return out
}

// TestDecodedNamesAreCanonical: every path an attribute name takes into an
// engine — a trace line, AttrList.UnmarshalJSON, a replayed WAL record, a
// restored checkpoint and Attrs.List — yields the very string the compiled
// predicates, the kernel's key attribute and an aggregate's argument and
// group hold, so AttrList.Get finds it by address and compares no bytes.
func TestDecodedNamesAreCanonical(t *testing.T) {
	p := compile(t, "PATTERN SEQ(TRADE a, TRADE b) WHERE a.sym = b.sym AND b.price < a.price WITHIN 100")
	en := MustNew(p, Options{K: 50})
	canonical := map[string]string{"sym": en.keyAttr}
	if p.PartitionKey != "sym" || unsafe.StringData(p.PartitionKey) != unsafe.StringData(en.keyAttr) {
		t.Fatalf("key attribute %q, plan partition key %q: want sym, one string", en.keyAttr, p.PartitionKey)
	}
	for _, cp := range p.Cross {
		for _, name := range operandNames(t, cp.Pred) {
			if c, ok := canonical[name]; ok && unsafe.StringData(c) != unsafe.StringData(name) {
				t.Errorf("two compiled strings for %q", name)
			}
			canonical[name] = name
		}
	}
	if len(canonical) != 2 {
		t.Fatalf("compiled names %v, want sym and price", canonical)
	}
	agg := compile(t, "AGGREGATE MAX(b.price) OVER SEQ(TRADE a, TRADE b) WHERE a.sym = b.sym WITHIN 100 GROUP BY a.sym").Agg
	for name, compiled := range map[string]string{"price": agg.ArgAttr, "sym": agg.GroupAttr} {
		if unsafe.StringData(compiled) != unsafe.StringData(canonical[name]) {
			t.Errorf("aggregate's %q is not the compiled string", name)
		}
	}

	line := `{"type":"TRADE","ts":10,"seq":1,"attrs":{"price":{"float":9.5},"sym":{"int":3}}}`
	decoded := map[string]event.AttrList{}
	ev, err := trace.NewReader(strings.NewReader(line + "\n")).Read()
	if err != nil {
		t.Fatal(err)
	}
	decoded["trace.Reader"] = ev.Attrs
	var list event.AttrList
	_, attrsJSON, _ := strings.Cut(line, `"attrs":`)
	if err := json.Unmarshal([]byte(strings.TrimSuffix(attrsJSON, "}")), &list); err != nil {
		t.Fatal(err)
	}
	decoded["AttrList.UnmarshalJSON"] = list
	decoded["Attrs.List"] = event.Attrs{"price": event.Float(9.5), "sym": event.Int(3)}.List()

	dir := filepath.Join(t.TempDir(), "wal")
	store, err := recovery.Open(dir, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(ev); err != nil {
		t.Fatal(err)
	}
	store.Kill()
	if store, err = recovery.Open(dir, recovery.Options{}); err != nil {
		t.Fatal(err)
	}
	rec, err := store.Recover()
	if err != nil || len(rec.Replay) != 1 {
		t.Fatalf("WAL replay: %v, %v", rec, err)
	}
	store.Kill()
	decoded["WAL replay"] = rec.Replay[0].Attrs

	en.Process(ev)
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := restore(p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stacks := restored.flatStacks(); len(stacks[0]) != 1 {
		t.Fatalf("restored stacks %v, want the one event", stacks)
	} else {
		decoded["checkpoint restore"] = stacks[0][0].Attrs
	}

	for path, attrs := range decoded {
		if len(attrs) != 2 {
			t.Fatalf("%s: %v", path, attrs)
		}
		for _, a := range attrs {
			if c := canonical[a.Name]; unsafe.StringData(c) != unsafe.StringData(a.Name) {
				t.Errorf("%s: name %q is not the compiled string", path, a.Name)
			}
		}
	}
}
