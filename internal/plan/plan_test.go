package plan

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"oostream/internal/event"
)

func compile(t *testing.T, src string) *Plan {
	t.Helper()
	p, err := ParseAndCompile(src, nil)
	if err != nil {
		t.Fatalf("ParseAndCompile(%q): %v", src, err)
	}
	return p
}

func TestCompileDistributesPredicates(t *testing.T) {
	p := compile(t, `
		PATTERN SEQ(A a, B b, C c)
		WHERE a.x > 1 AND b.y = 2 AND a.id = c.id AND a.id = b.id AND 1 = 1
		WITHIN 100`)
	if len(p.Positives) != 3 {
		t.Fatalf("positives = %d", len(p.Positives))
	}
	if len(p.Positives[0].Local) != 1 || len(p.Positives[1].Local) != 1 || len(p.Positives[2].Local) != 0 {
		t.Errorf("local counts = %d,%d,%d",
			len(p.Positives[0].Local), len(p.Positives[1].Local), len(p.Positives[2].Local))
	}
	if len(p.Cross) != 2 {
		t.Fatalf("cross = %d", len(p.Cross))
	}
	if p.ConstFalse {
		t.Error("1=1 should not mark ConstFalse")
	}
	// a.id = c.id has mask {0,2}; a.id = b.id has mask {0,1}.
	masks := map[uint64]bool{}
	for _, c := range p.Cross {
		masks[c.Mask] = true
	}
	if !masks[0b101] || !masks[0b011] {
		t.Errorf("cross masks = %v", masks)
	}
	// CrossBySlot: slot 0 referenced by both.
	if len(p.CrossBySlot[0]) != 2 || len(p.CrossBySlot[1]) != 1 || len(p.CrossBySlot[2]) != 1 {
		t.Errorf("CrossBySlot = %v", p.CrossBySlot)
	}
}

func TestCompileConstFalse(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a) WHERE 1 = 2 WITHIN 10")
	if !p.ConstFalse {
		t.Error("1=2 should mark ConstFalse")
	}
}

func TestCompileNegativePredicates(t *testing.T) {
	p := compile(t, `
		PATTERN SEQ(A a, !(N n), B b)
		WHERE n.x > 0 AND a.id = n.id AND a.id = b.id
		WITHIN 100`)
	if len(p.Negatives) != 1 {
		t.Fatalf("negatives = %d", len(p.Negatives))
	}
	neg := p.Negatives[0]
	if neg.GapAfter != 1 {
		t.Errorf("GapAfter = %d", neg.GapAfter)
	}
	if len(neg.Local) != 1 || len(neg.Cross) != 1 {
		t.Errorf("neg local=%d cross=%d", len(neg.Local), len(neg.Cross))
	}
	if len(p.Cross) != 1 {
		t.Errorf("positive cross = %d", len(p.Cross))
	}
}

func TestCompileRejectsTwoNegVarsInOnePredicate(t *testing.T) {
	_, err := ParseAndCompile(`
		PATTERN SEQ(A a, !(N n), !(M m), B b)
		WHERE n.id = m.id
		WITHIN 100`, nil)
	if err == nil || !strings.Contains(err.Error(), "multiple negated") {
		t.Fatalf("want multiple-negated error, got %v", err)
	}
}

func TestTypeIndex(t *testing.T) {
	p := compile(t, "PATTERN SEQ(T a, U b, T c, !(V n)) WITHIN 10")
	if got := p.PositionsForType("T"); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("PositionsForType(T) = %v", got)
	}
	if got := p.PositionsForType("U"); len(got) != 1 || got[0] != 1 {
		t.Errorf("PositionsForType(U) = %v", got)
	}
	if got := p.NegativesForType("V"); len(got) != 1 || got[0] != 0 {
		t.Errorf("NegativesForType(V) = %v", got)
	}
	if !p.Relevant("T") || !p.Relevant("V") || p.Relevant("X") {
		t.Error("Relevant misclassifies")
	}
	if !p.HasNegation() {
		t.Error("HasNegation should be true")
	}
}

func TestEvalLocal(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.x > 5 AND a.x < 10 WITHIN 100")
	local := p.Positives[0].Local
	if len(local) != 2 {
		t.Fatalf("local = %d", len(local))
	}
	if !EvalLocal(local, event.New("A", 1, event.Attrs{"x": event.Int(7)}), nil) {
		t.Error("7 should pass (5,10)")
	}
	if EvalLocal(local, event.New("A", 1, event.Attrs{"x": event.Int(3)}), nil) {
		t.Error("3 should fail")
	}
	var errs int
	sink := func(error) { errs++ }
	if EvalLocal(local, event.New("A", 1, event.Attrs{}), sink) {
		t.Error("missing attr should fail")
	}
	if errs != 1 {
		t.Errorf("errSink calls = %d, want 1", errs)
	}
}

func TestCrossSatisfiedAtExactlyOnce(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WHERE a.id = c.id WITHIN 100")
	binding := []event.Event{
		event.New("A", 1, event.Attrs{"id": event.Int(1)}),
		event.New("B", 2, event.Attrs{"id": event.Int(9)}),
		event.New("C", 3, event.Attrs{"id": event.Int(1)}),
	}
	// Binding order c(2), a(0), b(1): predicate {0,2} fires when slot 0
	// binds, not when slot 1 binds.
	if !p.CrossSatisfiedAt(2, 1<<2, binding, nil) {
		t.Error("binding slot 2 alone: predicate not fully bound, must pass")
	}
	if !p.CrossSatisfiedAt(0, 1<<2|1<<0, binding, nil) {
		t.Error("binding slot 0 with {0,2} bound: predicate should hold")
	}
	if !p.CrossSatisfiedAt(1, 1<<2|1<<0|1<<1, binding, nil) {
		t.Error("binding slot 1: predicate already fired, must be skipped")
	}
	// Now a failing binding, detected exactly when the last referenced
	// slot binds.
	binding[2] = event.New("C", 3, event.Attrs{"id": event.Int(5)})
	if p.CrossSatisfiedAt(0, 1<<2|1<<0, binding, nil) {
		t.Error("mismatched ids must fail when slot 0 completes the mask")
	}
}

func TestNegMatches(t *testing.T) {
	p := compile(t, `
		PATTERN SEQ(A a, !(N n), B b)
		WHERE n.x > 0 AND a.id = n.id
		WITHIN 100`)
	positives := []event.Event{
		event.New("A", 1, event.Attrs{"id": event.Int(7)}),
		event.New("B", 50, event.Attrs{"id": event.Int(7)}),
	}
	tests := []struct {
		name string
		neg  event.Event
		want bool
	}{
		{"matches", event.New("N", 10, event.Attrs{"id": event.Int(7), "x": event.Int(1)}), true},
		{"wrong id", event.New("N", 10, event.Attrs{"id": event.Int(8), "x": event.Int(1)}), false},
		{"fails local", event.New("N", 10, event.Attrs{"id": event.Int(7), "x": event.Int(0)}), false},
	}
	for _, tt := range tests {
		if got := p.NegMatches(0, tt.neg, positives, nil); got != tt.want {
			t.Errorf("%s: NegMatches = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestGapBounds(t *testing.T) {
	mk := func(ts ...event.Time) []event.Event {
		out := make([]event.Event, len(ts))
		for i, v := range ts {
			out[i] = event.Event{TS: v}
		}
		return out
	}
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	lo, hi := p.GapBounds(0, mk(10, 60))
	if lo != 10 || hi != 60 {
		t.Errorf("middle gap = (%d,%d), want (10,60)", lo, hi)
	}
	p = compile(t, "PATTERN SEQ(!(N n), A a, B b) WITHIN 100")
	lo, hi = p.GapBounds(0, mk(10, 60))
	if lo != -90 || hi != 10 {
		t.Errorf("leading gap = (%d,%d), want (-90,10)", lo, hi)
	}
	p = compile(t, "PATTERN SEQ(A a, B b, !(N n)) WITHIN 100")
	lo, hi = p.GapBounds(0, mk(10, 60))
	if lo != 60 || hi != 110 {
		t.Errorf("trailing gap = (%d,%d), want (60,110)", lo, hi)
	}
}

func TestProject(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 100 RETURN a.x + b.x AS sum, a.x AS ax")
	binding := []event.Event{
		event.New("A", 1, event.Attrs{"x": event.Int(2)}),
		event.New("B", 2, event.Attrs{"x": event.Int(3)}),
	}
	vals, err := p.Project(binding)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || !vals[0].Equal(event.Int(5)) || !vals[1].Equal(event.Int(2)) {
		t.Errorf("Project = %v", vals)
	}
	p2 := compile(t, "PATTERN SEQ(A a) WITHIN 100")
	if vals, err := p2.Project(binding[:1]); err != nil || vals != nil {
		t.Errorf("no RETURN: %v, %v", vals, err)
	}
	// Projection error propagates.
	p3 := compile(t, "PATTERN SEQ(A a) WITHIN 100 RETURN a.nope")
	if _, err := p3.Project(binding[:1]); err == nil {
		t.Error("missing attr in RETURN should error")
	}
}

func TestAutoPartitionKey(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		// Single equality chain.
		{"PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100", "id"},
		// Full chain over three slots and a negation.
		{"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = n.id AND a.id = b.id WITHIN 100", "id"},
		// Two candidate attributes: the one in more equality predicates wins.
		{"PATTERN SEQ(A a, B b, C c) WHERE a.id = b.id AND b.id = c.id AND a.z = c.z WITHIN 100", "id"},
		// Chain does not reach the negation: not partitionable.
		{"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id WITHIN 100", ""},
		// No cross predicates at all.
		{"PATTERN SEQ(A a, B b) WITHIN 100", ""},
		// Chain does not connect all positive slots.
		{"PATTERN SEQ(A a, B b, C c) WHERE a.id = b.id WITHIN 100", ""},
	}
	for _, tt := range tests {
		if got := compile(t, tt.src).PartitionKey; got != tt.want {
			t.Errorf("%s: PartitionKey = %q, want %q", tt.src, got, tt.want)
		}
	}
}

// TestPartitionableByChecks: PartitionableBy(attr) holds exactly when an
// equality chain on attr links every component, negated ones included.
func TestPartitionableByChecks(t *testing.T) {
	const shopQuery = `
		PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
		WHERE s.id = e.id AND s.id = c.id
		WITHIN 6s`
	tests := []struct {
		src  string
		attr string
		want bool
	}{
		{shopQuery, "id", true},
		{shopQuery, "gate", false},
		{"PATTERN SEQ(A a, B b) WITHIN 10", "id", false},
		{"PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 10", "id", true},
		{"PATTERN SEQ(A a, B b, C c) WHERE a.id = b.id WITHIN 10", "id", false}, // c unlinked
		{"PATTERN SEQ(A a, B b, C c) WHERE a.id = b.id AND b.id = c.id WITHIN 10", "id", true},
		{"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id WITHIN 10", "id", false}, // negation unlinked
		{"PATTERN SEQ(A a) WITHIN 10", "anything", true},                           // single positive
		{"PATTERN SEQ(A a, B b) WHERE a.id = b.x WITHIN 10", "id", false},          // different attrs
	}
	for _, tt := range tests {
		if got := compile(t, tt.src).PartitionableBy(tt.attr); got != tt.want {
			t.Errorf("PartitionableBy(%q) on %q = %v, want %v", tt.attr, tt.src, got, tt.want)
		}
	}
}

func TestKeyOf(t *testing.T) {
	e := event.New("A", 42, event.Attrs{"id": event.Float(3.0), "s": event.Str("x")})
	if k, ok := KeyOf(e, "id"); !ok || !k.Equal(event.Int(3)) {
		t.Errorf("KeyOf float id = %v, %v (want canonical Int(3))", k, ok)
	}
	if k, ok := KeyOf(e, "s"); !ok || !k.Equal(event.Str("x")) {
		t.Errorf("KeyOf string = %v, %v", k, ok)
	}
	// The "ts" pseudo-attribute falls back to the event timestamp.
	if k, ok := KeyOf(e, "ts"); !ok || !k.Equal(event.Int(42)) {
		t.Errorf("KeyOf ts = %v, %v", k, ok)
	}
	if _, ok := KeyOf(e, "missing"); ok {
		t.Error("KeyOf missing attr should report !ok")
	}
	// NaN equals nothing, so it keys nothing; the infinities are ordinary.
	e = event.New("A", 42, event.Attrs{"id": event.Float(math.NaN())})
	if k, ok := KeyOf(e, "id"); ok {
		t.Errorf("KeyOf NaN = %v, true; want !ok", k)
	}
	e = event.New("A", 42, event.Attrs{"id": event.Float(math.Inf(1))})
	if k, ok := KeyOf(e, "id"); !ok || k != event.Float(math.Inf(1)) {
		t.Errorf("KeyOf +Inf = %v, %v", k, ok)
	}
}

// holdsAll runs the checks' programs over the binding.
func holdsAll(checks []Check, binding []event.Event) bool {
	for i := range checks {
		if !checks[i].Holds(binding, nil) {
			return false
		}
	}
	return true
}

// crossIdxs returns the indices into p.Cross of the checks' predicates.
func crossIdxs(p *Plan, checks []Check) []int {
	var idxs []int
	for _, c := range checks {
		for i := range p.Cross {
			if p.Cross[i].Pred == c.Pred {
				idxs = append(idxs, i)
			}
		}
	}
	return idxs
}

func TestCrossViewSkipsKeyEqualities(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.id = b.id AND a.x < b.x WITHIN 100")
	skip := make(map[int]bool)
	for _, l := range p.EqLinks {
		if l.Attr == "id" {
			skip[l.CrossIdx] = true
		}
	}
	v := p.CrossView(func(i int) bool { return skip[i] })
	// Different ids but ascending x: with the id equality skipped (the keyed
	// engine guarantees it structurally), the view must accept the binding.
	binding := []event.Event{
		event.New("A", 1, event.Attrs{"id": event.Int(1), "x": event.Int(1)}),
		event.New("B", 2, event.Attrs{"id": event.Int(2), "x": event.Int(5)}),
	}
	if !holdsAll(v.Walk(0)[1].Checks, binding) {
		t.Error("view with id skipped should accept ascending x")
	}
	// Descending x must still be rejected by the remaining predicate.
	binding[1] = event.New("B", 2, event.Attrs{"id": event.Int(2), "x": event.Int(0)})
	if holdsAll(v.Walk(0)[1].Checks, binding) {
		t.Error("view must still evaluate non-key predicates")
	}
	// The unfiltered view rejects mismatched ids.
	binding[1] = event.New("B", 2, event.Attrs{"id": event.Int(2), "x": event.Int(5)})
	if holdsAll(p.CrossView(nil).Walk(0)[1].Checks, binding) {
		t.Error("unfiltered view must evaluate the id equality")
	}
}

// TestCrossViewHoistsTriggerPairs: each predicate fires at the level that
// binds its last slot in the walk's order (t, t−1 … 0, t+1 … n−1); one over
// exactly {trigger, slot} moves from Checks to Hoisted at the levels a walk
// revisits (slot < t-1, slot > t+1, slot = t+1 when t > 0) and nowhere
// else; a pair names the side its level binds and the partner's slot.
func TestCrossViewHoistsTriggerPairs(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WHERE a.x > b.x AND b.x < c.x AND c.x > a.x + 3 "+
		"AND a.x + b.x < c.x WITHIN 100")
	v := p.CrossView(nil)
	ab, bc, ac, abc := 0, 1, 2, 3 // indices into p.Cross, in WHERE order
	hoisted := map[int]map[int][]int{
		0: {2: {ac}}, // a triggers: b is visited once, c once per b
		1: {2: {bc}}, // b triggers: a is visited once, c once per a
		2: {0: {ac}}, // c triggers: b is visited once, a once per b
	}
	checks := map[int]map[int][]int{
		0: {1: {ab}, 2: {bc, abc}},
		1: {0: {ab}, 2: {ac, abc}},
		2: {1: {bc}, 0: {ab, abc}},
	}
	for trig := 0; trig < 3; trig++ {
		if !v.Hoists(trig) || !v.HasPairs(trig) {
			t.Errorf("trigger %d: Hoists %v, HasPairs %v, want both", trig, v.Hoists(trig), v.HasPairs(trig))
		}
		for slot, lv := range v.Walk(trig) {
			if got := crossIdxs(p, lv.Hoisted); !reflect.DeepEqual(got, hoisted[trig][slot]) {
				t.Errorf("Walk(%d)[%d].Hoisted = %v, want %v", trig, slot, got, hoisted[trig][slot])
			}
			if got := crossIdxs(p, lv.Checks); !reflect.DeepEqual(got, checks[trig][slot]) {
				t.Errorf("Walk(%d)[%d].Checks = %v, want %v", trig, slot, got, checks[trig][slot])
			}
		}
	}
	// Trigger c: at a's level, a.x > b.x is a pair whose candidate is the
	// left side and whose partner is b; a.x + b.x < c.x is no pair.
	lv := v.Walk(2)[0]
	if c := lv.Checks[0]; c.Pair == nil || c.Cand != 0 || c.Partner != 1 {
		t.Errorf("a.x > b.x at a under trigger c: pair %v, cand %d, partner %d; want a pair, 0, 1", c.Pair != nil, c.Cand, c.Partner)
	}
	if c := lv.Checks[1]; c.Pair != nil {
		t.Error("a.x + b.x < c.x is not a pair")
	}
	if c := lv.Hoisted[0]; c.Pair == nil || c.Cand != 1 || c.Partner != 2 {
		t.Errorf("c.x > a.x + 3 at a under trigger c: pair %v, cand %d, partner %d; want a pair, 1, 2", c.Pair != nil, c.Cand, c.Partner)
	}

	// Nothing to hoist: two steps (every level is visited once), no cross
	// predicate, and a key-equality chain the keyed engine skips.
	chain := compile(t, "PATTERN SEQ(A a, B b, C c) WHERE a.id = b.id AND a.id = c.id WITHIN 100")
	for name, qv := range map[string]*CrossView{
		"two steps":     compile(t, "PATTERN SEQ(A a, B b) WHERE a.x < b.x WITHIN 100").CrossView(nil),
		"no predicates": compile(t, "PATTERN SEQ(A a, B b, C c) WITHIN 100").CrossView(nil),
		"skipped chain": chain.CrossView(func(int) bool { return true }),
	} {
		for trig := range qv.walks {
			if qv.Hoists(trig) {
				t.Errorf("%s: Hoists(%d), want none", name, trig)
			}
		}
	}
	if !chain.CrossView(nil).Hoists(0) {
		t.Error("unkeyed chain: a.id = c.id is a trigger pair of a walk triggered at a")
	}
}
