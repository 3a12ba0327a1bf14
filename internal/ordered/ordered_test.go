package ordered

import (
	"testing"
	"testing/quick"

	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

func compile(t *testing.T, src string) *plan.Plan {
	t.Helper()
	p, err := plan.ParseAndCompile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func wrap(t *testing.T, p *plan.Plan, k event.Time) *Engine {
	t.Helper()
	en, err := New(core.MustNew(p, core.Options{K: k}), k)
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func isOrdered(ms []plan.Match) bool {
	for i := 1; i < len(ms); i++ {
		a, b := ms[i-1], ms[i]
		if a.Last().TS > b.Last().TS {
			return false
		}
		if a.Last().TS == b.Last().TS && a.Key() > b.Key() {
			return false
		}
	}
	return true
}

func TestOrderedEmission(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	const k = 40
	sorted := gen.Uniform(300, []string{"A", "B"}, 3, 5, 51)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: k, Seed: 52})

	plain := engine.Drain(core.MustNew(p, core.Options{K: k}), shuffled)
	if isOrdered(plain) {
		t.Log("note: unwrapped output happened to be ordered on this seed")
	}
	got := engine.Drain(wrap(t, p, k), shuffled)
	if !isOrdered(got) {
		t.Fatal("wrapped output not in timestamp order")
	}
	if ok, diff := plan.SameResults(plain, got); !ok {
		t.Fatalf("wrapper changed the result set:\n%s", diff)
	}
}

func TestOrderedProperty(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, C c) WITHIN 60")
	f := func(seed int64) bool {
		const k = 30
		sorted := gen.Uniform(120, []string{"A", "B", "C"}, 2, 4, seed)
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.5, MaxDelay: k, Seed: seed + 1})
		en, err := New(core.MustNew(p, core.Options{K: k}), k)
		if err != nil {
			return false
		}
		got := engine.Drain(en, shuffled)
		want := engine.Drain(core.MustNew(p, core.Options{K: k}), shuffled)
		same, _ := plan.SameResults(want, got)
		return same && isOrdered(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedWithNegationAndHeartbeat(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	en := wrap(t, p, 20)
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	if out := en.Process(event.Event{Type: "B", TS: 30, Seq: 2}); len(out) != 0 {
		t.Fatal("premature")
	}
	// Heartbeat seals the negation gap AND passes the order horizon.
	out := en.Advance(100)
	if len(out) != 1 || out[0].Key() != "1|2" {
		t.Fatalf("heartbeat release: %v", out)
	}
}

func TestOrderedNameStateAndValidation(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a) WITHIN 10")
	en := wrap(t, p, 5)
	if en.Name() != "ordered(native)" {
		t.Errorf("Name = %q", en.Name())
	}
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	if en.StateSize() < 1 {
		t.Error("buffered match not counted in state")
	}
	if _, err := New(core.MustNew(p, core.Options{K: 5}), -1); err == nil {
		t.Error("negative K accepted")
	}
}

func TestOrderedPanicsOnRetraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on retraction")
		}
	}()
	en := &Engine{inner: nil, k: 0}
	en.take(1, []plan.Match{{Kind: plan.Retract, Events: []event.Event{{TS: 1}}}}, nil)
}
