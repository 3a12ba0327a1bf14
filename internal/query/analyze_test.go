package query

import (
	"strings"
	"testing"

	"oostream/internal/event"
)

func testSchema() *event.Schema {
	s := event.NewSchema()
	s.Declare("SHELF", map[string]event.Kind{"id": event.KindInt, "price": event.KindFloat, "aisle": event.KindString})
	s.Declare("COUNTER", map[string]event.Kind{"id": event.KindInt})
	s.Declare("EXIT", map[string]event.Kind{"id": event.KindInt, "gate": event.KindString, "open": event.KindBool})
	return s
}

func analyzeSrc(t *testing.T, src string, schema *event.Schema) (*Analyzed, error) {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return Analyze(q, schema)
}

func TestAnalyzeStructure(t *testing.T) {
	a, err := analyzeSrc(t, `
		PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
		WHERE s.id = e.id AND s.id = c.id
		WITHIN 1h`, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Positives) != 2 {
		t.Fatalf("positives = %d", len(a.Positives))
	}
	if len(a.Negatives) != 1 || a.Negatives[0].GapAfter != 1 {
		t.Fatalf("negatives = %+v", a.Negatives)
	}
	if a.VarPosition["s"] != 0 || a.VarPosition["e"] != 1 {
		t.Errorf("VarPosition = %v", a.VarPosition)
	}
	if _, ok := a.VarPosition["c"]; ok {
		t.Error("negative var should not have a positive position")
	}
	if a.NegVarIndex["c"] != 0 {
		t.Errorf("NegVarIndex = %v", a.NegVarIndex)
	}
}

func TestAnalyzeNegationPlacement(t *testing.T) {
	tests := []struct {
		src  string
		gaps []int
	}{
		{"PATTERN SEQ(!(A n), B b, C c) WITHIN 5", []int{0}},
		{"PATTERN SEQ(B b, C c, !(A n)) WITHIN 5", []int{2}},
		{"PATTERN SEQ(B b, !(A n), !(D m), C c) WITHIN 5", []int{1, 1}},
	}
	for _, tt := range tests {
		a, err := analyzeSrc(t, tt.src, nil)
		if err != nil {
			t.Errorf("%q: %v", tt.src, err)
			continue
		}
		if len(a.Negatives) != len(tt.gaps) {
			t.Errorf("%q: negatives = %d, want %d", tt.src, len(a.Negatives), len(tt.gaps))
			continue
		}
		for i, g := range tt.gaps {
			if a.Negatives[i].GapAfter != g {
				t.Errorf("%q: gap[%d] = %d, want %d", tt.src, i, a.Negatives[i].GapAfter, g)
			}
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	schema := testSchema()
	tests := []struct {
		name, src, wantErr string
		schema             *event.Schema
	}{
		{"dup var", "PATTERN SEQ(SHELF a, EXIT a) WITHIN 5", "already bound", schema},
		{"no positives", "PATTERN SEQ(!(SHELF a)) WITHIN 5", "at least one positive", schema},
		{"no window", "PATTERN SEQ(SHELF a, EXIT b)", "WITHIN clause is required", schema},
		{"window over limit", "PATTERN SEQ(SHELF a, EXIT b) WITHIN 1152921504606846977", "exceeds the limit of 1152921504606846976ms", schema},
		{"unknown type", "PATTERN SEQ(NOPE a) WITHIN 5", "not declared in schema", schema},
		{"unknown var in where", "PATTERN SEQ(SHELF s) WHERE z.id = 1 WITHIN 5", `unknown variable "z"`, schema},
		{"unknown var no schema", "PATTERN SEQ(SHELF s) WHERE z.id = 1 WITHIN 5", `unknown variable "z"`, nil},
		{"unknown attr", "PATTERN SEQ(SHELF s) WHERE s.nope = 1 WITHIN 5", `no attribute "nope"`, schema},
		{"non-bool where", "PATTERN SEQ(SHELF s) WHERE s.id + 1 WITHIN 5", "must be boolean", schema},
		{"return negative var", "PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WITHIN 5 RETURN c.id", "negated variable", schema},
		{"compare string to int", "PATTERN SEQ(SHELF s) WHERE s.aisle = 1 WITHIN 5", "cannot compare", schema},
		{"bool ordering", "PATTERN SEQ(EXIT e) WHERE e.open < TRUE WITHIN 5", "only support", schema},
		{"and of non-bool", "PATTERN SEQ(SHELF s) WHERE s.id AND s.price > 0 WITHIN 5", "boolean operands", schema},
		{"arith on string", "PATTERN SEQ(SHELF s) WHERE s.aisle + 1 > 2 WITHIN 5", "numeric operands", schema},
		{"mod on float", "PATTERN SEQ(SHELF s) WHERE s.price % 2 = 0 WITHIN 5", "integer operands", schema},
		{"not on number", "PATTERN SEQ(SHELF s) WHERE NOT s.id WITHIN 5", "boolean operand", schema},
		{"negate string", "PATTERN SEQ(SHELF s) WHERE -s.aisle = 1 WITHIN 5", "numeric operand", schema},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := analyzeSrc(t, tt.src, tt.schema)
			if err == nil {
				t.Fatalf("Analyze(%q) should fail", tt.src)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestAnalyzeValidWithoutSchema(t *testing.T) {
	a, err := analyzeSrc(t, "PATTERN SEQ(A a, B b) WHERE a.anything = b.whatever WITHIN 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Positives) != 2 {
		t.Errorf("positives = %d", len(a.Positives))
	}
}

func TestAnalyzeKindInference(t *testing.T) {
	valid := []string{
		"PATTERN SEQ(SHELF s, EXIT e) WHERE s.price * 2 + s.id > 10 WITHIN 5",
		"PATTERN SEQ(SHELF s) WHERE s.id % 2 = 0 WITHIN 5",
		"PATTERN SEQ(EXIT e) WHERE e.open = TRUE AND NOT e.open WITHIN 5",
		"PATTERN SEQ(SHELF s) WHERE s.aisle = 'a1' WITHIN 5",
		"PATTERN SEQ(SHELF s) WHERE -s.price < 0 WITHIN 5",
		"PATTERN SEQ(SHELF s, EXIT e) WITHIN 5 RETURN s.price * 2 AS doubled, e.gate",
	}
	for _, src := range valid {
		if _, err := analyzeSrc(t, src, testSchema()); err != nil {
			t.Errorf("Analyze(%q): %v", src, err)
		}
	}
}
