package engine_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/hybrid"
	"oostream/internal/kslack"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// TestAllEnginesImplementTheContract pins the one contract: every strategy
// is an engine.Engine, checkpoints mid-stream, and restores to an engine that
// finishes the stream as the uninterrupted one does.
func TestAllEnginesImplementTheContract(t *testing.T) {
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, !(C c), B b) WITHIN 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	kernel := func(s *engine.Sections) (engine.Engine, error) { return core.Restore(p, engine.Env{}, s) }
	hybridEngine := func() engine.Engine {
		ctrl, err := adaptive.NewController(adaptive.Config{}, 10)
		if err != nil {
			t.Fatal(err)
		}
		return must(hybrid.New(p, core.Options{}, hybrid.Options{Controller: ctrl}))
	}
	for _, c := range []struct {
		fresh   func() engine.Engine
		restore func(*engine.Sections) (engine.Engine, error)
	}{
		{func() engine.Engine { return core.MustNew(p, core.Options{K: 10}) }, kernel},
		{func() engine.Engine { return kslack.NewEngine(10, core.MustNew(p, core.Options{}), engine.Env{}) },
			func(s *engine.Sections) (engine.Engine, error) { return kslack.Restore(s, 10, engine.Env{}, kernel) }},
		{func() engine.Engine { return core.MustNew(p, core.Options{K: 10, Emit: core.EmitThenRetract}) }, kernel},
		{hybridEngine, func(s *engine.Sections) (engine.Engine, error) { return hybrid.Restore(p, engine.Env{}, s) }},
	} {
		// A speculative engine emits a1·b3 at once and retracts it at c2.
		events := []event.Event{
			{Type: "A", TS: 10, Seq: 1}, {Type: "B", TS: 30, Seq: 3},
			{Type: "C", TS: 20, Seq: 2}, {Type: "A", TS: 40, Seq: 4}, {Type: "B", TS: 50, Seq: 5},
		}
		want := engine.Drain(c.fresh(), events)
		en := c.fresh()
		var got []plan.Match
		for _, e := range events[:2] {
			got = append(got, en.Process(e)...)
		}
		blob, err := engine.Seal(en.Checkpoint)
		if err != nil {
			t.Fatalf("%s checkpoint: %v", en.Name(), err)
		}
		sec, err := engine.Open(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s open: %v", en.Name(), err)
		}
		restored, err := c.restore(sec)
		if err != nil {
			t.Fatalf("%s restore: %v", en.Name(), err)
		}
		if restored.Name() != en.Name() {
			t.Errorf("restored %s as %s", en.Name(), restored.Name())
		}
		got = append(got, engine.Drain(restored, events[2:])...)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: restored run %v, uninterrupted %v", en.Name(), got, want)
		}
	}
}

func must(en *hybrid.Engine, err error) engine.Engine {
	if err != nil {
		panic(err)
	}
	return en
}

func TestDrainIncludesFlush(t *testing.T) {
	// A trailing-negation query defers emission to Flush; Drain must
	// include it.
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, B b, !(N n)) WITHIN 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	events := []event.Event{
		{Type: "A", TS: 10, Seq: 1},
		{Type: "B", TS: 20, Seq: 2},
	}
	got := engine.Drain(core.MustNew(p, core.Options{K: 10}), events)
	if len(got) != 1 {
		t.Fatalf("Drain missed the flush-time match: %v", got)
	}
}

// TestTapSteps pins what each lifecycle step reports: its counters, and
// with a hook one trace event per op carrying the tap's name, the event's
// type, time and Seq, the step's count and, on an emit, the match identity;
// without one, no allocation at all.
func TestTapSteps(t *testing.T) {
	e := event.Event{Type: "A", TS: 40, Seq: 7}
	ins := plan.Match{Events: []event.Event{{TS: 30, Seq: 3}, e}, EmitSeq: 9, Prov: &provenance.Record{Events: provenance.Refs([]event.Event{{Seq: 3}, e})}}
	ret := plan.Match{Kind: plan.Retract, Events: []event.Event{plan.WindowEvent(50)}, Agg: &plan.AggValue{Count: 4}}
	steps := func(tap *engine.Tap) {
		tap.Admit(e, true, 3)
		tap.Reject(e, false)
		tap.Reject(e, true)
		tap.Push(e, 1, 2)
		tap.Trigger(e, 1)
		tap.Emit(&ins, 10, 2)
		tap.Emit(&ret, 0, 0)
		tap.Purge(35, 5)
		tap.Mark(obsv.OpCheckpoint, "", 40, 128)
		tap.Mark(obsv.OpSwitch, "native", 38, 1)
	}

	var got []string
	hook := obsv.TraceFunc(func(te obsv.TraceEvent) { got = append(got, te.String()) })
	tap := engine.Env{Series: obsv.NewRegistry().Series("q"), Trace: hook}.Publish("native")
	steps(&tap)
	want := []string{
		"admit      engine=q type=A ts=40 seq=7 n=0",
		"drop       engine=q type=A ts=40 seq=7 n=0",
		"shed       engine=q type=A ts=40 seq=7 n=0",
		"push       engine=q type=A ts=40 seq=7 n=1",
		"repair     engine=q type=A ts=40 seq=7 n=2",
		"trigger    engine=q type=A ts=40 seq=7 n=1",
		"emit       engine=q type= ts=40 seq=9 n=2 match=3|7",
		"retract    engine=q type= ts=50 seq=0 n=4",
		"purge      engine=q type= ts=35 seq=0 n=5",
		"checkpoint engine=q type= ts=40 seq=0 n=128",
		"switch     engine=q type=native ts=38 seq=0 n=1",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("trace\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	m := tap.Snapshot()
	counts := []uint64{m.EventsIn, m.EventsOOO, m.EventsLate, m.SheddedEvents, m.Repairs, m.Probes, m.Matches, m.Retractions, m.PurgeCalls, m.Purged, m.Checkpoints, m.Switches}
	if fmt.Sprint(counts) != "[1 1 1 1 2 1 1 1 1 5 1 1]" {
		t.Errorf("counters in, ooo, late, shed, repairs, probes, matches, retractions, purge calls, purged, checkpoints, switches = %v", counts)
	}
	if m.LogicalLat.Sum != 10 || m.ArrivalLat.Sum != 2 || m.WatermarkLag.Sum != 3 || m.CheckpointBytes != 128 {
		t.Errorf("latencies %d/%d, lag %d, checkpoint bytes %d", m.LogicalLat.Sum, m.ArrivalLat.Sum, m.WatermarkLag.Sum, m.CheckpointBytes)
	}

	// On a carried series the steps write the rows the table marks carried,
	// as on any series, and no other.
	carried := engine.Env{Series: obsv.NewSeries("").Carry()}.Publish("native")
	steps(&carried)
	full, only := reflect.ValueOf(m), reflect.ValueOf(carried.Snapshot())
	for _, in := range obsv.Instruments() {
		f := in.SnapshotField()
		if !only.FieldByName(f).IsValid() {
			continue
		}
		want := full.FieldByName(f).Interface()
		if !in.Carried() {
			want = reflect.Zero(full.FieldByName(f).Type()).Interface()
		}
		if got := only.FieldByName(f).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s on a carried series: %v, want %v (carried row: %v)", f, got, want, in.Carried())
		}
	}

	bare := engine.Env{}.Publish("native")
	if n := testing.AllocsPerRun(100, func() { steps(&bare) }); n != 0 {
		t.Errorf("an unhooked tap allocates %.0f times per round of steps", n)
	}
	if bare.Name() != "native" || tap.Name() != "q" {
		t.Errorf("names %q and %q: a named series names the tap, else the layer does", bare.Name(), tap.Name())
	}
}

// TestNegativeLatencyClamped: an emit after the clock and an admission ahead
// of the watermark observe 0, not a wrapped uint64.
func TestNegativeLatencyClamped(t *testing.T) {
	tap := engine.Env{}.Publish("native")
	tap.Emit(&plan.Match{Events: []event.Event{{TS: 5}}}, -5, 0)
	tap.Admit(event.Event{}, true, -2)
	m := tap.Snapshot()
	if m.LogicalLat.Sum != 0 || m.LogicalLat.Count != 1 {
		t.Errorf("negative latency not clamped: %+v", m.LogicalLat)
	}
	if m.WatermarkLag.Sum != 0 || m.WatermarkLag.Count != 1 {
		t.Errorf("negative lag not clamped: %+v", m.WatermarkLag)
	}
}
