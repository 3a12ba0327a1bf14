package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

// keyedQueries are the testQueries the planner can partition (an equality
// chain on "id" connects every component).
var keyedQueries = []string{
	"PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100",
	"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = n.id AND a.id = b.id WITHIN 60",
	"PATTERN SEQ(A a, B b, C c) WHERE a.id = b.id AND b.id = c.id WITHIN 120",
	"PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WHERE s.id = e.id AND s.id = c.id WITHIN 120",
}

// withoutKey returns p without its partition attribute: the kernel then
// files every event under the zero key and evaluates every key equality, as
// for a query that is not partitionable.
func withoutKey(p *plan.Plan) *plan.Plan {
	c := *p
	c.PartitionKey = ""
	return &c
}

func TestAutoKeyingEnables(t *testing.T) {
	for _, q := range keyedQueries {
		p := compile(t, q)
		if p.PartitionKey != "id" {
			t.Fatalf("%s: PartitionKey = %q, want \"id\"", q, p.PartitionKey)
		}
		en := MustNew(p, Options{K: 40})
		if !en.Keyed() {
			t.Fatalf("%s: engine not keyed", q)
		}
		if MustNew(withoutKey(p), Options{K: 40}).Keyed() {
			t.Fatalf("%s: a plan without a key built a keyed engine", q)
		}
	}
	// No equality chain: keying must stay off.
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	if p.PartitionKey != "" {
		t.Fatalf("unpartitionable query got key %q", p.PartitionKey)
	}
	if MustNew(p, Options{K: 40}).Keyed() {
		t.Fatal("unpartitionable query built a keyed engine")
	}
}

// TestKeyedMatchesUnkeyedAcrossSkews: the keyed engine must emit exactly
// the unkeyed engine's result multiset at every key cardinality (one hot
// key, a few, and high cardinality) and disorder ratio.
func TestKeyedMatchesUnkeyedAcrossSkews(t *testing.T) {
	for _, q := range keyedQueries {
		p := compile(t, q)
		for _, ids := range []int{1, 10, 1000} {
			for _, ratio := range []float64{0, 0.3, 1} {
				sorted := gen.Uniform(300, []string{"A", "B", "C", "N", "SHELF", "COUNTER", "EXIT"}, ids, 4, int64(ids))
				k := event.Time(40)
				shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: ratio, MaxDelay: k, Seed: 7})
				keyed := drain(t, p, Options{K: k}, shuffled)
				unkeyed := drain(t, withoutKey(p), Options{K: k}, shuffled)
				if ok, diff := plan.SameResults(unkeyed, keyed); !ok {
					t.Fatalf("%s ids=%d ratio=%.1f: keyed != unkeyed (%d vs %d):\n%s",
						q, ids, ratio, len(keyed), len(unkeyed), diff)
				}
			}
		}
	}
}

// TestStateSizeIncremental asserts the O(1) StateSize counters equal a full
// recomputation, the keyed expiry orders index exactly the live state
// (CheckDue) and the stacks' columns hold their instances' loads
// (CheckColumns; unkeyed, a.id = b.id is a pair), after every event, for
// keyed and unkeyed engines under both emission policies, purging at the
// default cadence and after every event.
func TestStateSizeIncremental(t *testing.T) {
	for _, q := range testQueries {
		p := compile(t, q)
		for _, v := range []struct {
			p    *plan.Plan
			opts Options
		}{
			{p, Options{K: 40}},
			{withoutKey(p), Options{K: 40}},
			{p, Options{K: 40, PurgeEvery: 1}},
			{withoutKey(p), Options{K: 40, PurgeEvery: 1}},
			{p, Options{K: 40, Emit: EmitThenRetract}},
			{p, Options{K: 40, Emit: EmitThenRetract, PurgeEvery: 1}},
			{withoutKey(p), Options{K: 40, Emit: EmitThenRetract, PurgeEvery: 1}},
		} {
			opts, key := v.opts, v.p.PartitionKey
			sorted := gen.Uniform(200, testTypes, 3, 6, 11)
			shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: 40, Seed: 3})
			en := MustNew(v.p, opts)
			for i, e := range shuffled {
				en.Process(e)
				if got, want := en.StateSize(), en.recomputeStateSize(); got != want {
					t.Fatalf("%s key=%q opts=%+v event %d: StateSize %d != recomputed %d", q, key, opts, i, got, want)
				}
				if err := en.CheckDue(); err != nil {
					t.Fatalf("%s key=%q opts=%+v event %d: %v", q, key, opts, i, err)
				}
				if err := en.kstacks.CheckColumns(); err != nil {
					t.Fatalf("%s key=%q opts=%+v event %d: %v", q, key, opts, i, err)
				}
			}
			en.Flush()
			if got, want := en.StateSize(), en.recomputeStateSize(); got != want {
				t.Fatalf("%s key=%q opts=%+v after flush: StateSize %d != recomputed %d", q, key, opts, got, want)
			}
			if err := en.CheckDue(); err != nil {
				t.Fatalf("%s key=%q opts=%+v after flush: %v", q, key, opts, err)
			}
		}
	}
}

// TestKeyedAblationsAgree extends the ablation matrix with the key on and
// off crossed with the other knobs.
func TestKeyedAblationsAgree(t *testing.T) {
	variants := []struct {
		keyed bool
		opts  Options
	}{
		{true, Options{K: 40}},
		{false, Options{K: 40}},
		{false, Options{K: 40, DisableTriggerOpt: true}},
		{true, Options{K: 40, DisableTriggerOpt: true}},
		{true, Options{K: 40, PurgeEvery: 1}},
		{false, Options{K: 40, PurgeEvery: 1}},
	}
	for _, q := range keyedQueries {
		p := compile(t, q)
		sorted := gen.Uniform(250, []string{"A", "B", "C", "N", "SHELF", "COUNTER", "EXIT"}, 5, 4, 42)
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 40, Seed: 1})
		base := drain(t, p, variants[0].opts, shuffled)
		for _, v := range variants[1:] {
			vp := p
			if !v.keyed {
				vp = withoutKey(p)
			}
			got := drain(t, vp, v.opts, shuffled)
			if ok, diff := plan.SameResults(base, got); !ok {
				t.Fatalf("%s: variant keyed=%v %+v differs:\n%s", q, v.keyed, v.opts, diff)
			}
		}
	}
}

// kev builds a test event with an optional integer id attribute.
func kev(typ string, ts event.Time, seq event.Seq, attrs event.Attrs) event.Event {
	return event.Event{Type: typ, TS: ts, Seq: seq, Attrs: attrs.List()}
}

// TestKeyedDropsMissingKeyEvents: events lacking the partition key cannot
// join any match; both modes must agree on the result set, and the keyed
// engine must not grow state for them.
func TestKeyedDropsMissingKeyEvents(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100")
	events := []event.Event{
		kev("A", 10, 1, event.Attrs{"id": event.Int(1)}),
		kev("A", 20, 2, nil), // no id
		kev("B", 30, 3, event.Attrs{"id": event.Int(1)}),
		kev("B", 40, 4, nil), // no id
	}
	keyed := drain(t, p, Options{K: 10}, events)
	unkeyed := drain(t, withoutKey(p), Options{K: 10}, events)
	if ok, diff := plan.SameResults(unkeyed, keyed); !ok {
		t.Fatalf("keyed != unkeyed on missing-key stream:\n%s", diff)
	}
	if len(keyed) != 1 {
		t.Fatalf("got %d matches, want 1", len(keyed))
	}
	en := MustNew(p, Options{K: 10})
	en.Process(kev("A", 10, 1, nil))
	if en.StateSize() != 0 {
		t.Fatalf("missing-key event grew keyed state to %d", en.StateSize())
	}
	if en.Metrics().PredErrors == 0 {
		t.Fatal("missing-key drop not counted as predicate error")
	}
}

// TestKeyedDropsNaNKeys: NaN equals nothing, itself included, so a NaN
// partition key can join no match. As a map key it must not exist at all:
// compared as a float it would open a group per insert that no lookup and no
// purge ever reaches again, and compared by bit pattern it would group events
// the equality rejects. plan.KeyOf refuses it, like a missing key.
func TestKeyedDropsNaNKeys(t *testing.T) {
	p := compile(t, "PATTERN SEQ(TRADE a, TRADE b) WHERE a.sym = b.sym WITHIN 100")
	const n = 20000
	events := make([]event.Event, n)
	for i := range events {
		events[i] = kev("TRADE", event.Time(i), event.Seq(i+1), event.Attrs{"sym": event.Float(math.NaN())})
	}
	en := MustNew(p, Options{K: 10})
	if !en.Keyed() {
		t.Fatal("engine not keyed")
	}
	keyed := engine.Drain(en, events)
	unkeyed := drain(t, withoutKey(p), Options{K: 10}, events)
	if len(keyed) != 0 || len(unkeyed) != 0 {
		t.Fatalf("NaN = NaN matched: %d keyed, %d unkeyed matches", len(keyed), len(unkeyed))
	}
	en.Advance(n + 1000)
	if got := en.StateSnapshot().KeyGroups; got != 0 {
		t.Errorf("KeyGroups after purge = %d, want 0", got)
	}
	if got := en.StateSize(); got != 0 {
		t.Errorf("StateSize after purge = %d, want 0", got)
	}
	if got := en.Metrics().PeakKeyGroups; got != 0 {
		t.Errorf("PeakKeyGroups = %d, want 0: no NaN event may open a group", got)
	}
	if got := en.Metrics().PredErrors; got != n {
		t.Errorf("PredErrors = %d, want %d", got, n)
	}

	// A stream where some keys are NaN and the rest match.
	mixed := []event.Event{
		kev("TRADE", 10, 1, event.Attrs{"sym": event.Float(math.NaN())}),
		kev("TRADE", 20, 2, event.Attrs{"sym": event.Int(7)}),
		kev("TRADE", 30, 3, event.Attrs{"sym": event.Float(math.NaN())}),
		kev("TRADE", 40, 4, event.Attrs{"sym": event.Float(7)}),
	}
	keyed = drain(t, p, Options{K: 10}, mixed)
	unkeyed = drain(t, withoutKey(p), Options{K: 10}, mixed)
	if ok, diff := plan.SameResults(unkeyed, keyed); !ok || len(keyed) != 1 {
		t.Fatalf("mixed NaN stream: %d keyed vs %d unkeyed matches, want 1 each:\n%s", len(keyed), len(unkeyed), diff)
	}
}

// TestKeyGroupsGaugeAndPurge: groups track distinct live keys and empty
// groups are dropped once the purge horizon passes them.
func TestKeyGroupsGaugeAndPurge(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 10")
	en := MustNew(p, Options{K: 5, PurgeEvery: 1})
	for i := 0; i < 8; i++ {
		en.Process(kev("A", event.Time(10+i), event.Seq(i+1), event.Attrs{"id": event.Int(int64(i))}))
	}
	if got := en.KeyGroups(); got != 8 {
		t.Fatalf("KeyGroups = %d, want 8", got)
	}
	if m := en.Metrics(); m.KeyGroups != 8 || m.PeakKeyGroups != 8 {
		t.Fatalf("metrics gauges = %d/%d, want 8/8", m.KeyGroups, m.PeakKeyGroups)
	}
	// Push the safe clock far past every instance: all groups empty out.
	en.Advance(1000)
	if got := en.KeyGroups(); got != 0 {
		t.Fatalf("KeyGroups after purge = %d, want 0", got)
	}
	if m := en.Metrics(); m.KeyGroups != 0 || m.PeakKeyGroups != 8 {
		t.Fatalf("metrics gauges after purge = %d/%d, want 0/8", m.KeyGroups, m.PeakKeyGroups)
	}
	if en.StateSize() != 0 {
		t.Fatalf("state after purge = %d, want 0", en.StateSize())
	}
}

// TestKeyedCrossKindKeys: Int(3) and Float(3.0) must land in one key group
// (Value.Equal semantics), so a float-keyed SHELF matches an int-keyed EXIT.
func TestKeyedCrossKindKeys(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100")
	events := []event.Event{
		kev("A", 10, 1, event.Attrs{"id": event.Float(3.0)}),
		kev("B", 20, 2, event.Attrs{"id": event.Int(3)}),
	}
	keyed := drain(t, p, Options{K: 10}, events)
	unkeyed := drain(t, withoutKey(p), Options{K: 10}, events)
	if len(keyed) != 1 {
		t.Fatalf("cross-kind key match lost: got %d matches", len(keyed))
	}
	if ok, diff := plan.SameResults(unkeyed, keyed); !ok {
		t.Fatalf("keyed != unkeyed:\n%s", diff)
	}
}

// TestKeyedCheckpointRoundtrip: checkpoint mid-stream through keyed stacks,
// restore, finish the stream, and compare against an uninterrupted run.
func TestKeyedCheckpointRoundtrip(t *testing.T) {
	for _, q := range keyedQueries {
		p := compile(t, q)
		sorted := gen.Uniform(240, []string{"A", "B", "C", "N", "SHELF", "COUNTER", "EXIT"}, 6, 4, 9)
		k := event.Time(40)
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: k, Seed: 2})

		full := drain(t, p, Options{K: k}, shuffled)

		en := MustNew(p, Options{K: k})
		if !en.Keyed() {
			t.Fatalf("%s: engine not keyed", q)
		}
		var out []plan.Match
		half := len(shuffled) / 2
		for _, e := range shuffled[:half] {
			out = append(out, en.Process(e)...)
		}
		var buf bytes.Buffer
		if err := en.Checkpoint(&buf); err != nil {
			t.Fatalf("%s: checkpoint: %v", q, err)
		}
		restored, err := restore(p, &buf)
		if err != nil {
			t.Fatalf("%s: restore: %v", q, err)
		}
		if !restored.Keyed() {
			t.Fatalf("%s: restored engine not keyed", q)
		}
		if got, want := restored.StateSize(), en.StateSize(); got != want {
			t.Fatalf("%s: restored StateSize %d != %d", q, got, want)
		}
		if got, want := restored.StateSize(), restored.recomputeStateSize(); got != want {
			t.Fatalf("%s: restored counters %d != recomputed %d", q, got, want)
		}
		// Restore refills the expiry orders through the same inserts: without
		// their entries the restored instances and negatives would never purge.
		if err := restored.CheckDue(); err != nil {
			t.Fatalf("%s: restored engine: %v", q, err)
		}
		for _, e := range shuffled[half:] {
			out = append(out, restored.Process(e)...)
		}
		out = append(out, restored.Flush()...)
		if ok, diff := plan.SameResults(full, out); !ok {
			t.Fatalf("%s: checkpointed run differs:\n%s", q, diff)
		}
	}
}

// TestConstructionAllocFree: with state warm and scratch buffers in place,
// processing events must not allocate per candidate binding — only emitted
// matches may allocate.
func TestConstructionAllocFree(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 1000000")
	en := MustNew(p, Options{K: 0, PurgeEvery: -1})
	// Warm: one hot key with many A instances, so each B probe walks a
	// long stack without emitting (a.v < b.v never holds).
	for i := 0; i < 200; i++ {
		en.Process(kev("A", event.Time(i), event.Seq(i+1), event.Attrs{"id": event.Int(1), "v": event.Int(2)}))
	}
	probe := kev("B", 5000, 1000, event.Attrs{"id": event.Int(2)})
	allocs := testing.AllocsPerRun(100, func() {
		en.Process(probe)
	})
	// A B on an unpopulated key inserts one instance (one alloc for the
	// Instance, amortized slice growth) but must not allocate per scan.
	if allocs > 4 {
		t.Fatalf("Process allocated %.1f times per event, want <= 4", allocs)
	}
}

func BenchmarkKeyedVsUnkeyed(b *testing.B) {
	p, err := plan.ParseAndCompile("PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WHERE s.id = e.id AND s.id = c.id WITHIN 120", nil)
	if err != nil {
		b.Fatal(err)
	}
	sorted := gen.Uniform(2000, []string{"SHELF", "COUNTER", "EXIT"}, 200, 4, 5)
	stream := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 40, Seed: 6})
	for _, keyed := range []bool{true, false} {
		bp := p
		if !keyed {
			bp = withoutKey(p)
		}
		b.Run(fmt.Sprintf("keyed=%v", keyed), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.Drain(MustNew(bp, Options{K: 40}), stream)
			}
		})
	}
}
