package shard

import (
	"testing"

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

const shopQuery = `
	PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
	WHERE s.id = e.id AND s.id = c.id
	WITHIN 6s`

func nativeFactory(p *plan.Plan, k event.Time) func(int) (engine.Engine, error) {
	return func(int) (engine.Engine, error) {
		return core.New(p, core.Options{K: k})
	}
}

func mustRouter(t *testing.T, attr string, n int) *Router {
	t.Helper()
	r, err := NewRouter(attr, n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterDeterministicAndBalanced(t *testing.T) {
	r, err := NewRouter("id", 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		e := event.New("T", 1, event.Attrs{"id": event.Int(int64(i))})
		s1, err := r.Route(e)
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := r.Route(e)
		if s1 != s2 {
			t.Fatal("routing not deterministic")
		}
		counts[s1]++
	}
	for i, c := range counts {
		if c < 100 {
			t.Errorf("shard %d badly underloaded: %d/1000", i, c)
		}
	}
}

func TestRouterIntFloatAgree(t *testing.T) {
	r, _ := NewRouter("id", 7)
	a, _ := r.Route(event.New("T", 1, event.Attrs{"id": event.Int(42)}))
	b, _ := r.Route(event.New("T", 1, event.Attrs{"id": event.Float(42)}))
	if a != b {
		t.Error("Int(42) and Float(42) must route identically (they compare equal)")
	}
}

func TestRouterAllKinds(t *testing.T) {
	r, _ := NewRouter("k", 3)
	for _, v := range []event.Value{
		event.Int(-5), event.Float(2.5), event.Str("x"), event.Bool(true), event.Bool(false),
	} {
		if _, err := r.Route(event.New("T", 1, event.Attrs{"k": v})); err != nil {
			t.Errorf("route %v: %v", v, err)
		}
	}
}

func TestRouterErrors(t *testing.T) {
	if _, err := NewRouter("id", 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewRouter("", 2); err == nil {
		t.Error("empty attr accepted")
	}
	r, _ := NewRouter("id", 2)
	if _, err := r.Route(event.New("T", 1, nil)); err == nil {
		t.Error("missing attr should error")
	}
}

func TestPartitionedEqualsSingleEngine(t *testing.T) {
	p := compile(t, shopQuery)
	if !p.PartitionableBy("id") {
		t.Fatal("shop query should be partitionable by id")
	}
	sorted := gen.RFID(gen.DefaultRFID(300, 55))
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.2, MaxDelay: 2000, Seed: 56})

	single := engine.Drain(core.MustNew(p, core.Options{K: 2000}), shuffled)

	for _, shards := range []int{1, 2, 4, 7} {
		r, err := NewRouter("id", shards)
		if err != nil {
			t.Fatal(err)
		}
		en, err := New(r, engine.Env{}, nativeFactory(p, 2000))
		if err != nil {
			t.Fatal(err)
		}
		got := engine.Drain(en, shuffled)
		if ok, diff := plan.SameResults(single, got); !ok {
			t.Fatalf("%d shards differ from single engine:\n%s", shards, diff)
		}
		if en.RouteErrors() != 0 {
			t.Errorf("%d shards: route errors %d", shards, en.RouteErrors())
		}
	}
}

func TestPartitionedMetricsAggregate(t *testing.T) {
	p := compile(t, shopQuery)
	r, _ := NewRouter("id", 3)
	en, err := New(r, engine.Env{}, nativeFactory(p, 2000))
	if err != nil {
		t.Fatal(err)
	}
	sorted := gen.RFID(gen.DefaultRFID(100, 57))
	engine.Drain(en, sorted)
	m := en.Metrics()
	if m.EventsIn == 0 || m.Matches == 0 {
		t.Errorf("aggregated metrics empty: %+v", m)
	}
	if en.Name() != "shard(native)" {
		t.Errorf("Name() = %q", en.Name())
	}
	if en.StateSize() < 0 {
		t.Error("state size")
	}
}

func TestPartitionedDropsKeylessEvents(t *testing.T) {
	p := compile(t, shopQuery)
	r, _ := NewRouter("id", 2)
	en, err := New(r, engine.Env{}, nativeFactory(p, 2000))
	if err != nil {
		t.Fatal(err)
	}
	en.Process(event.New("SHELF", 1, event.Attrs{"other": event.Int(1)}))
	if en.RouteErrors() != 1 {
		t.Errorf("route errors = %d", en.RouteErrors())
	}
}

func TestPartitionedAdvance(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id AND a.id = n.id WITHIN 100")
	r, _ := NewRouter("id", 2)
	en, err := New(r, engine.Env{}, nativeFactory(p, 50))
	if err != nil {
		t.Fatal(err)
	}
	en.Process(event.New("A", 10, event.Attrs{"id": event.Int(1)}))
	if out := en.Process(event.New("B", 30, event.Attrs{"id": event.Int(1)})); len(out) != 0 {
		t.Fatal("should pend")
	}
	out := en.Advance(90) // safe = 40 >= gap end 30 on every shard
	if len(out) != 1 {
		t.Fatalf("heartbeat should seal across shards, got %v", out)
	}
}

func TestPartitionableByChecks(t *testing.T) {
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
		p := compile(t, tt.src)
		if got := p.PartitionableBy(tt.attr); got != tt.want {
			t.Errorf("PartitionableBy(%q) on %q = %v, want %v", tt.attr, tt.src, got, tt.want)
		}
	}
}
