package plan_test

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"oostream"
	"oostream/internal/difftest"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

// The fmt-based bodies Event.String, AggValue.String and Match.String had
// before they were rebuilt on append helpers, kept as the reference the
// new output must equal byte for byte.

func refEventString(e event.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d#%d{", e.Type, e.TS, e.Seq)
	names := make([]string, 0, len(e.Attrs))
	for _, a := range e.Attrs {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	for i, k := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		v, _ := e.Attr(k)
		fmt.Fprintf(&b, "%s=%s", k, refValueString(v))
	}
	b.WriteByte('}')
	return b.String()
}

func refValueString(v event.Value) string {
	switch v.Kind() {
	case event.KindInt:
		i, _ := v.AsInt()
		return strconv.FormatInt(i, 10)
	case event.KindFloat:
		f, _ := v.AsFloat()
		return strconv.FormatFloat(f, 'g', -1, 64)
	case event.KindString:
		s, _ := v.AsString()
		return strconv.Quote(s)
	case event.KindBool:
		b, _ := v.AsBool()
		return strconv.FormatBool(b)
	default:
		return "<invalid>"
	}
}

func refAggString(v *plan.AggValue) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%d,%d]", v.Func, v.WindowStart, v.WindowEnd)
	if v.HasGroup {
		fmt.Fprintf(&b, " key=%s", refValueString(v.Group))
	}
	fmt.Fprintf(&b, " = %s (n=%d)", refValueString(v.Value), v.Count)
	return b.String()
}

func refMatchString(m plan.Match) string {
	var b strings.Builder
	if m.Kind == plan.Retract {
		b.WriteString("-")
	}
	if m.Agg != nil {
		b.WriteString("[")
		b.WriteString(refAggString(m.Agg))
		b.WriteString("]")
		return b.String()
	}
	b.WriteString("[")
	for i, e := range m.Events {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(refEventString(e))
	}
	b.WriteString("]")
	return b.String()
}

// handMatches covers what the generated trials cannot: every value kind,
// names and strings needing quotes, no attributes, more attributes than
// the stack buffer for sorting holds, a match longer than the stack buffer
// for rendering, and invalid values.
func handMatches() []plan.Match {
	many := event.Attrs{}
	for i := 0; i < 12; i++ {
		many[fmt.Sprintf("k%d", (i*5)%12)] = event.Int(int64(i))
	}
	kinds := event.Event{Type: "K", TS: -7, Seq: math.MaxUint64, Attrs: event.Attrs{
		"i": event.Int(math.MinInt64), "f": event.Float(2.5), "s": event.Str("pl\"ain\n\x00é\xff"), "b": event.Bool(true),
		"f2": event.Float(1e21), "f3": event.Float(math.NaN()), "f4": event.Float(math.Copysign(0, -1)), "bad": {},
		"needs \"quoting\", =": event.Str(""),
	}.List()}
	long := event.Event{Type: strings.Repeat("LONG", 100), Attrs: event.Attrs{"s": event.Str(strings.Repeat("x", 600))}.List()}
	agg := func(group event.Value, has bool, val event.Value) *plan.AggValue {
		return &plan.AggValue{Func: "MAX", WindowStart: -120000, WindowEnd: 40, Group: group, HasGroup: has, Value: val, Count: 3}
	}
	return []plan.Match{
		{},
		{Kind: plan.Insert, Events: []event.Event{{Type: "BARE", TS: 1, Seq: 2}}},
		{Kind: plan.Retract, Events: []event.Event{kinds, {Type: "MANY", Attrs: many.List()}, long}},
		{Kind: plan.Insert, Events: []event.Event{plan.WindowEvent(40)}, Agg: agg(event.Value{}, false, event.Int(9))},
		{Kind: plan.Retract, Events: []event.Event{plan.WindowEvent(40)}, Agg: agg(event.Str("g\"1"), true, event.Float(0.1))},
		{Kind: plan.Insert, Agg: agg(event.Bool(false), true, event.Value{})},
	}
}

// generatedMatches runs difftest trials through the engine: pattern
// matches with retractions (speculate) and aggregates with and without
// GROUP BY.
func generatedMatches(t *testing.T) []plan.Match {
	var out []plan.Match
	run := func(c difftest.Case, strategy oostream.Strategy) {
		q, err := oostream.Compile(c.Query, difftest.Schema())
		if err != nil {
			t.Fatalf("seed %d: %v", c.Seed, err)
		}
		en, err := oostream.NewEngine(q, oostream.Config{Strategy: strategy, K: c.K})
		if err != nil {
			t.Fatalf("seed %d: %v", c.Seed, err)
		}
		out = append(out, en.ProcessAll(c.Arrival)...)
	}
	for seed := int64(1); seed <= 40; seed++ {
		run(difftest.Generate(seed), oostream.StrategySpeculate)
		run(difftest.GenerateAgg(seed), oostream.StrategyNative)
		run(difftest.GenerateAgg(seed), oostream.StrategySpeculate)
	}
	return out
}

func TestRenderingMatchesReference(t *testing.T) {
	matches := append(handMatches(), generatedMatches(t)...)
	var retracts, aggs, grouped int
	for _, m := range matches {
		if got, want := m.String(), refMatchString(m); got != want {
			t.Fatalf("Match.String:\n got %s\nwant %s", got, want)
		}
		for _, e := range m.Events {
			if got, want := e.String(), refEventString(e); got != want {
				t.Fatalf("Event.String:\n got %s\nwant %s", got, want)
			}
			for _, a := range e.Attrs {
				if got, want := a.Value.String(), refValueString(a.Value); got != want {
					t.Fatalf("Value.String: got %s want %s", got, want)
				}
			}
		}
		if m.Kind == plan.Retract {
			retracts++
		}
		if m.Agg != nil {
			if got, want := m.Agg.String(), refAggString(m.Agg); got != want {
				t.Fatalf("AggValue.String:\n got %s\nwant %s", got, want)
			}
			aggs++
			if m.Agg.HasGroup {
				grouped++
			}
		}
	}
	if len(matches) < 1000 || retracts == 0 || aggs == grouped || grouped == 0 {
		t.Fatalf("trials too thin: %d matches, %d retractions, %d aggregates of which %d grouped", len(matches), retracts, aggs, grouped)
	}
}

// rfidMatches is the result stream of the repository benchmark's
// rfid-seq-native workload at a tenth the size.
func rfidMatches(tb testing.TB) []plan.Match {
	events := gen.Shuffle(gen.RFID(gen.DefaultRFID(2400, 1)), gen.Disorder{Ratio: 0.2, MaxDelay: 2000, Seed: 2})
	q, err := oostream.Compile("PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s", nil)
	if err != nil {
		tb.Fatal(err)
	}
	en, err := oostream.NewEngine(q, oostream.Config{Strategy: oostream.StrategyNative, K: 2000})
	if err != nil {
		tb.Fatal(err)
	}
	matches := en.ProcessAll(events)
	if len(matches) == 0 {
		tb.Fatal("no matches")
	}
	return matches
}

// TestMatchStringAllocations pins what plan.render_ns_per_result rests on:
// a two-event match costs the returned string and nothing else.
func TestMatchStringAllocations(t *testing.T) {
	m := rfidMatches(t)[0]
	if len(m.Events) != 2 || len(m.Events[0].Attrs) < 2 {
		t.Fatalf("not a two-event match with attributes: %v", m)
	}
	if n := testing.AllocsPerRun(200, func() { sinkString = m.String() }); n > 1 {
		t.Errorf("Match.String of a two-event match: %.0f allocations, want at most 1", n)
	}
}

// TestMatchAppendText: AppendText writes what String returns, after what
// dst holds, and into a buffer it reuses costs nothing.
func TestMatchAppendText(t *testing.T) {
	matches := rfidMatches(t)
	buf := []byte("> ")
	for _, m := range matches {
		got, err := m.AppendText(buf[:2])
		if err != nil || string(got) != "> "+m.String() {
			t.Fatalf("AppendText = %q, %v; want %q", got, err, "> "+m.String())
		}
		buf = got
	}
	m := matches[0]
	if n := testing.AllocsPerRun(200, func() { buf, _ = m.AppendText(buf[:0]) }); n != 0 {
		t.Errorf("AppendText into a reused buffer: %.0f allocations, want 0", n)
	}
}

var sinkString string

// BenchmarkMatchString is the plan.render_* layer of the repository
// benchmark on its own: go test -bench MatchString ./internal/plan.
func BenchmarkMatchString(b *testing.B) {
	matches := rfidMatches(b)
	total := 0
	for _, m := range matches {
		total += len(m.String()) + 1
	}
	b.SetBytes(int64(total / len(matches)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString = matches[i%len(matches)].String()
	}
}

// BenchmarkMatchStringReference is the same over the fmt-based reference.
func BenchmarkMatchStringReference(b *testing.B) {
	matches := rfidMatches(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString = refMatchString(matches[i%len(matches)])
	}
}
