package query

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseMinimal(t *testing.T) {
	q := mustParse(t, "PATTERN SEQ(A a) WITHIN 10")
	if len(q.Components) != 1 || q.Components[0].Type != "A" || q.Components[0].Var != "a" {
		t.Errorf("components = %+v", q.Components)
	}
	if q.Within != 10 {
		t.Errorf("within = %d, want 10", q.Within)
	}
	if q.Where != nil || len(q.Return) != 0 {
		t.Error("unexpected WHERE/RETURN")
	}
}

func TestParseFullQuery(t *testing.T) {
	q := mustParse(t, `
		PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
		WHERE s.id = e.id AND s.id = c.id AND s.price > 100
		WITHIN 12h
		RETURN s.id AS item, e.gate
	`)
	if len(q.Components) != 3 {
		t.Fatalf("components = %d", len(q.Components))
	}
	neg := q.Components[1]
	if !neg.Negated || neg.Type != "COUNTER" || neg.Var != "c" {
		t.Errorf("negated component = %+v", neg)
	}
	if q.Within != 12*60*60*1000 {
		t.Errorf("within = %d", q.Within)
	}
	if len(q.Return) != 2 {
		t.Fatalf("return items = %d", len(q.Return))
	}
	if q.Return[0].Name != "item" {
		t.Errorf("return[0].Name = %q", q.Return[0].Name)
	}
	if q.Return[1].Name != "e_gate" {
		t.Errorf("return[1].Name = %q (synthesized)", q.Return[1].Name)
	}
}

func TestParsePrecedence(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"a.x + b.y * c.z", "(a.x + (b.y * c.z))"},
		{"a.x * b.y + c.z", "((a.x * b.y) + c.z)"},
		{"a.x = 1 AND b.y = 2 OR c.z = 3", "(((a.x = 1) AND (b.y = 2)) OR (c.z = 3))"},
		{"NOT a.x = 1 AND b.y = 2", "((NOT (a.x = 1)) AND (b.y = 2))"},
		{"a.x - b.y - c.z", "((a.x - b.y) - c.z)"},
		{"-a.x + b.y", "((-a.x) + b.y)"},
		{"(a.x + b.y) * c.z", "((a.x + b.y) * c.z)"},
		{"a.x % 2 = 0", "((a.x % 2) = 0)"},
		{"a.x != b.y", "(a.x != b.y)"},
		{"a.x <> b.y", "(a.x != b.y)"},
		{"a.x <= 5s", "(a.x <= 5000)"},
	}
	for _, tt := range tests {
		e, err := ParseExpr(tt.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tt.src, err)
			continue
		}
		if got := e.String(); got != tt.want {
			t.Errorf("ParseExpr(%q) = %s, want %s", tt.src, got, tt.want)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{"1", "1"},
		{"2.5", "2.5"},
		{"'str'", `"str"`},
		{"TRUE", "true"},
		{"false", "false"},
	}
	for _, tt := range tests {
		e, err := ParseExpr(tt.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tt.src, err)
			continue
		}
		if got := e.String(); got != tt.want {
			t.Errorf("ParseExpr(%q) = %s, want %s", tt.src, got, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		src     string
		wantErr string
	}{
		{"", "expected PATTERN"},
		{"PATTERN SEQ", "expected '('"},
		{"PATTERN SEQ()", "expected identifier"},
		{"PATTERN SEQ(A a", "expected ')'"},
		{"PATTERN SEQ(A a,) WITHIN 5", "expected identifier"},
		{"PATTERN SEQ(A a) WITHIN", "expected duration"},
		{"PATTERN SEQ(A a) WITHIN x", "expected duration"},
		{"PATTERN SEQ(!(A) b) WITHIN 5", "expected identifier"},
		{"PATTERN SEQ(A a) WITHIN 5 garbage", "expected end of input"},
		{"PATTERN SEQ(A a) WHERE WITHIN 5", "expected expression"},
		{"PATTERN SEQ(A a) WHERE a. WITHIN 5", "expected identifier"},
		{"PATTERN SEQ(A a) WHERE bare WITHIN 5", "attribute references"},
		{"PATTERN SEQ(A a) WHERE (a.x = 1 WITHIN 5", "expected ')'"},
		{"PATTERN SEQ(A a) WHERE a.x = 1 RETURN WITHIN 5", "expected expression"},
		{"PATTERN SEQ(A a) WITHIN 5 RETURN a.x AS", "expected identifier"},
	}
	for _, tt := range tests {
		_, err := Parse(tt.src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", tt.src)
			continue
		}
		if !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("Parse(%q) error = %v, want containing %q", tt.src, err, tt.wantErr)
		}
	}
}

func TestParseQueryStringRoundTrip(t *testing.T) {
	srcs := []string{
		"PATTERN SEQ(A a, B b) WHERE (a.x = b.x) WITHIN 100ms",
		"PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WITHIN 1h",
		"PATTERN SEQ(A a, B b) WITHIN 50ms RETURN a.x AS out",
	}
	for _, src := range srcs {
		q1 := mustParse(t, src)
		q2 := mustParse(t, q1.String())
		if q1.String() != q2.String() {
			t.Errorf("round trip changed query:\n  %s\n  %s", q1, q2)
		}
	}
}

func TestParseDurationForms(t *testing.T) {
	tests := []struct {
		src  string
		want int64
	}{
		{"PATTERN SEQ(A a) WITHIN 250", 250},
		{"PATTERN SEQ(A a) WITHIN 250ms", 250},
		{"PATTERN SEQ(A a) WITHIN 2s", 2000},
		{"PATTERN SEQ(A a) WITHIN 3m", 180000},
		{"PATTERN SEQ(A a) WITHIN 1h", 3600000},
		{"PATTERN SEQ(A a) WITHIN 1d", 86400000},
	}
	for _, tt := range tests {
		q := mustParse(t, tt.src)
		if q.Within != tt.want {
			t.Errorf("%q: within = %d, want %d", tt.src, q.Within, tt.want)
		}
	}
	// A literal whose milliseconds do not fit is an error, not a wrapped
	// (negative, or small and accepted) window.
	for _, src := range []string{"PATTERN SEQ(A a) WITHIN 99999999999999999h", "PATTERN SEQ(A a) WITHIN 9223372036854776s"} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%q: error = %v, want a duration overflow", src, err)
		}
	}
	if q := mustParse(t, "PATTERN SEQ(A a) WITHIN 9223372036854775s"); q.Within != 9223372036854775000 {
		t.Errorf("largest whole-second literal: within = %d", q.Within)
	}
}

func TestConjuncts(t *testing.T) {
	e, err := ParseExpr("a.x = 1 AND b.y = 2 AND (c.z = 3 OR c.z = 4)")
	if err != nil {
		t.Fatal(err)
	}
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(cs))
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil) should be nil")
	}
}

func TestVars(t *testing.T) {
	e, err := ParseExpr("a.x = 1 AND b.y + c.z > -a.w")
	if err != nil {
		t.Fatal(err)
	}
	vars := Vars(e)
	for _, v := range []string{"a", "b", "c"} {
		if !vars[v] {
			t.Errorf("missing var %q", v)
		}
	}
	if len(vars) != 3 {
		t.Errorf("vars = %v", vars)
	}
}
