package oostream

import (
	"strconv"
	"strings"
	"testing"

	"oostream/internal/gen"
)

func stageOneQuery(t *testing.T) *Query {
	t.Helper()
	return MustCompile(`
		PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
		WHERE s.id = e.id AND s.id = c.id
		WITHIN 6s
		RETURN s.id AS item, e.gate AS gate`, gen.RFIDSchema())
}

func TestComposerEvent(t *testing.T) {
	q := stageOneQuery(t)
	comp, err := NewComposer("THEFT", q)
	if err != nil {
		t.Fatal(err)
	}
	if comp.TypeName() != "THEFT" {
		t.Errorf("TypeName = %q", comp.TypeName())
	}
	if cols := comp.Columns(); len(cols) != 2 || cols[0] != "item" || cols[1] != "gate" {
		t.Errorf("Columns = %v", cols)
	}
	m := Match{
		Kind: Insert,
		Events: []Event{
			{Type: "SHELF", TS: 10, Seq: 1},
			{Type: "EXIT", TS: 50, Seq: 2},
		},
		Fields: []Value{Int(7), Str("g1")},
	}
	ce, err := comp.Event(m)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Type != "THEFT" || ce.TS != 50 {
		t.Errorf("composite = %v", ce)
	}
	if v, _ := ce.Attr("item"); !v.Equal(Int(7)) {
		t.Errorf("item attr = %v", v)
	}
	if v, _ := ce.Attr("gate"); !v.Equal(Str("g1")) {
		t.Errorf("gate attr = %v", v)
	}
}

func TestComposerRejections(t *testing.T) {
	q := stageOneQuery(t)
	if _, err := NewComposer("", q); err == nil {
		t.Error("empty type accepted")
	}
	noReturn := MustCompile("PATTERN SEQ(A a) WITHIN 10", nil)
	if _, err := NewComposer("X", noReturn); err == nil ||
		!strings.Contains(err.Error(), "RETURN") {
		t.Errorf("no-RETURN query: %v", err)
	}
	comp, err := NewComposer("THEFT", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Event(Match{Kind: Retract, Events: []Event{{TS: 1}}}); err == nil {
		t.Error("retraction accepted")
	}
	if _, err := comp.Event(Match{Kind: Insert, Events: []Event{{TS: 1}}, Fields: []Value{Int(1)}}); err == nil {
		t.Error("field arity mismatch accepted")
	}
}

// TestChainTwoStageDetection runs the hierarchical scenario: stage one
// detects thefts; stage two detects repeat incidents at the same gate
// within a time window — over a disordered stream end to end.
func TestChainTwoStageDetection(t *testing.T) {
	stage1 := stageOneQuery(t)
	stage2 := MustCompile(`
		PATTERN SEQ(THEFT t1, THEFT t2)
		WHERE t1.gate = t2.gate
		WITHIN 60s`, nil)

	comp, err := NewComposer("THEFT", stage1)
	if err != nil {
		t.Fatal(err)
	}

	const k = 2_000
	sorted := gen.RFID(gen.DefaultRFID(400, 81))
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.2, MaxDelay: k, Seed: 82})

	// Ground truth: chain over the sorted stream with no slack.
	wantOut, err := Chain(
		MustNewEngine(stage1, Config{}),
		comp,
		MustNewEngine(stage2, Config{}),
		sorted)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantOut) == 0 {
		t.Fatal("scenario produced no second-stage matches; tune workload")
	}

	// Native engines over the disordered stream. Stage-two events inherit
	// stage-one sealing delay, so its bound is stage-one K plus window
	// slack; 2K is ample here.
	gotOut, err := Chain(
		MustNewEngine(stage1, Config{K: k}),
		comp,
		MustNewEngine(stage2, Config{K: 3 * k}),
		shuffled)
	if err != nil {
		t.Fatal(err)
	}
	// Composite events get fresh seqs per run, so compare by (gate,
	// timestamps) signature rather than keys.
	sig := func(ms []Match) map[string]int {
		out := map[string]int{}
		for _, m := range ms {
			var b strings.Builder
			for _, e := range m.Events {
				gate, _ := e.Attr("gate")
				g, _ := gate.AsString()
				b.WriteString(g)
				b.WriteByte('@')
				b.WriteString(strconv.FormatInt(e.TS, 10))
				b.WriteByte('|')
			}
			out[b.String()]++
		}
		return out
	}
	w, g := sig(wantOut), sig(gotOut)
	if len(w) != len(g) {
		t.Fatalf("stage-two results differ: %d vs %d signatures", len(w), len(g))
	}
	for k2, n := range w {
		if g[k2] != n {
			t.Fatalf("signature %q: %d vs %d", k2, n, g[k2])
		}
	}
}
