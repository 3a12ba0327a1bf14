package hybrid

import (
	"bytes"
	"fmt"
	"testing"

	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/obsv"
	"oostream/internal/oracle"
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

// staticCtrl builds a controller that never resizes: effective K stays
// pinned at k (the hybrid equivalent of a static-K engine).
func staticCtrl(t *testing.T, k event.Time) *adaptive.Controller {
	t.Helper()
	ctrl, err := adaptive.NewController(adaptive.Config{}, k)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

var testQueries = []string{
	"PATTERN SEQ(A a, B b) WITHIN 50",
	"PATTERN SEQ(A a, B b, C c) WITHIN 80",
	"PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100",
	"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = n.id WITHIN 60",
	"PATTERN SEQ(!(N n), A a, B b) WITHIN 60",
	"PATTERN SEQ(A a, B b, !(N n)) WITHIN 40",
	"PATTERN SEQ(T a, T b) WITHIN 30",
}

var testTypes = []string{"A", "B", "C", "N", "T"}

// TestForcedSwitchesOracle is the hybrid's core correctness claim: with a
// static bound dominating the stream's disorder, the net output across any
// number of strategy switches equals the oracle on the sorted stream —
// from either starting mode, with switches forced at arbitrary points.
func TestForcedSwitchesOracle(t *testing.T) {
	for _, q := range testQueries {
		p := compile(t, q)
		for seed := int64(0); seed < 5; seed++ {
			sorted := gen.Uniform(180, testTypes, 3, 6, seed)
			k := event.Time(40)
			shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: k, Seed: seed + 7})
			want := oracle.Matches(p, sorted)
			for _, startNative := range []bool{false, true} {
				en, err := New(p, core.Options{}, Options{Controller: staticCtrl(t, k), StartNative: startNative})
				if err != nil {
					t.Fatal(err)
				}
				var got []plan.Match
				for i, e := range shuffled {
					got = append(got, en.Process(e)...)
					if i == len(shuffled)/3 || i == 2*len(shuffled)/3 {
						got = append(got, en.ForceSwitch()...)
					}
				}
				got = append(got, en.Flush()...)
				if en.Switches() != 2 {
					t.Fatalf("%s seed %d: expected 2 switches, got %d", q, seed, en.Switches())
				}
				if ok, diff := plan.SameResults(want, got); !ok {
					t.Fatalf("%s seed %d startNative=%v: hybrid != oracle (%d truth):\n%s",
						q, seed, startNative, len(want), diff)
				}
			}
		}
	}
}

// TestSwitchEveryEvent is the adversarial cadence: a switch after every
// single event must still converge to the oracle.
func TestSwitchEveryEvent(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 60")
	sorted := gen.Uniform(80, []string{"A", "B", "N"}, 2, 5, 3)
	k := event.Time(30)
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.5, MaxDelay: k, Seed: 11})
	want := oracle.Matches(p, sorted)
	en, err := New(p, core.Options{}, Options{Controller: staticCtrl(t, k)})
	if err != nil {
		t.Fatal(err)
	}
	var got []plan.Match
	for _, e := range shuffled {
		got = append(got, en.Process(e)...)
		got = append(got, en.ForceSwitch()...)
	}
	got = append(got, en.Flush()...)
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("hybrid != oracle under per-event switching:\n%s", diff)
	}
}

// TestAutoSwitchOnLatencySLO: the nominal K crossing SLO.MaxLatency must
// drive the engine to native; K shrinking under half the target brings it
// back to speculation.
func TestAutoSwitchOnLatencySLO(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	ctrl, err := adaptive.NewController(adaptive.Config{
		DecisionEvery: 16,
		SLO:           adaptive.SLO{MaxLatency: 100},
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(p, core.Options{}, Options{Controller: ctrl, MinDwell: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := event.Time(0)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			ts += 2
			typ := "A"
			if i%2 == 1 {
				typ = "B"
			}
			en.Process(event.Event{Type: typ, TS: ts, Seq: event.Seq(ts)})
		}
	}
	feed(40)
	if en.Mode() != ModeSpeculate {
		t.Fatalf("low K should stay speculative, mode %q", en.Mode())
	}
	ctrl.SetK(200) // disorder bound beyond the latency SLO
	feed(40)
	if en.Mode() != ModeNative {
		t.Fatalf("K=200 > MaxLatency=100 should switch to native, mode %q (switches %d)", en.Mode(), en.Switches())
	}
	ctrl.SetK(30) // well under MaxLatency/2
	feed(40)
	if en.Mode() != ModeSpeculate {
		t.Fatalf("K=30 <= MaxLatency/2 should switch back, mode %q", en.Mode())
	}
	if en.Switches() < 2 {
		t.Fatalf("expected at least 2 switches, got %d", en.Switches())
	}
}

// TestAutoSwitchOnRetractionRate: a stream whose negatives chronically
// arrive after the matches they invalidate makes speculation churn; the
// retraction-rate SLO must force native mode, and the net output must
// still equal the oracle.
func TestAutoSwitchOnRetractionRate(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 60")
	ctrl, err := adaptive.NewController(adaptive.Config{
		DecisionEvery: 30,
		SLO:           adaptive.SLO{MaxRetractionRate: 0.05},
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(p, core.Options{}, Options{Controller: ctrl, MinDwell: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Triples A(t), B(t+2), then N(t+1) arriving late: every triple emits a
	// speculative match and retracts it — a 1/3 retraction rate.
	var arrival, sorted []event.Event
	seq := event.Seq(0)
	mk := func(typ string, ts event.Time) event.Event {
		seq++
		return event.Event{Type: typ, TS: ts, Seq: seq}
	}
	for i := 0; i < 60; i++ {
		t0 := event.Time(i * 10)
		a, b, n := mk("A", t0), mk("B", t0+2), mk("N", t0+1)
		arrival = append(arrival, a, b, n)
	}
	sorted = append(sorted, arrival...)
	event.SortByTime(sorted)
	var got []plan.Match
	for _, e := range arrival {
		got = append(got, en.Process(e)...)
	}
	got = append(got, en.Flush()...)
	if en.Mode() != ModeNative {
		t.Fatalf("33%% retraction rate should have switched to native, mode %q (switches %d)", en.Mode(), en.Switches())
	}
	if en.Switches() == 0 {
		t.Fatal("expected at least one switch")
	}
	want := oracle.Matches(p, sorted)
	if ok, diff := plan.SameResults(want, got); !ok {
		t.Fatalf("net output != oracle across the auto-switch (%d truth):\n%s", len(want), diff)
	}
}

// TestDegradationSheds: when the state limit trips, the controller clamps
// the effective K, the frontier jumps, and arrivals between the clamped
// and nominal bounds are shed (counted, traced), not silently lost.
func TestDegradationSheds(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 1000")
	ctrl, err := adaptive.NewController(adaptive.Config{
		MinK:   1,
		Limits: adaptive.Limits{MaxBufferedEvents: 20},
	}, 500)
	if err != nil {
		t.Fatal(err)
	}
	var shedTraced int
	hook := obsv.TraceFunc(func(te obsv.TraceEvent) {
		if te.Op == obsv.OpShed {
			shedTraced++
		}
	})
	en, err := New(p, core.Options{Env: engine.Env{Trace: hook}}, Options{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	// In-order As blow past the state limit (WITHIN 1000 keeps them all
	// live), engaging degradation; then OOO events inside the nominal bound
	// but behind the clamped frontier arrive and must be shed.
	ts := event.Time(0)
	for i := 0; i < 60; i++ {
		ts += 10
		en.Process(event.Event{Type: "A", TS: ts, Seq: event.Seq(i)})
	}
	if !ctrl.Degraded() {
		t.Fatalf("state %d over limit 20 should degrade", en.StateSize())
	}
	for i := 0; i < 5; i++ {
		// Lag 100: within nominal K=500, behind the degraded frontier.
		en.Process(event.Event{Type: "B", TS: ts - 100, Seq: event.Seq(1000 + i)})
	}
	m := en.Metrics()
	if m.SheddedEvents == 0 {
		t.Fatal("expected shed events under degradation")
	}
	if int(m.SheddedEvents) != shedTraced {
		t.Fatalf("counter %d != traced sheds %d", m.SheddedEvents, shedTraced)
	}
	snap := en.StateSnapshot()
	if snap.Adaptive == nil || snap.Adaptive.Shedded != m.SheddedEvents || !snap.Adaptive.Degraded {
		t.Fatalf("snapshot adaptive block inconsistent: %+v", snap.Adaptive)
	}
	if snap.Adaptive.Mode != ModeSpeculate {
		t.Fatalf("snapshot mode %q", snap.Adaptive.Mode)
	}
}

// TestHeartbeatRelay: Advance must seal pending native output through the
// meta-engine.
func TestHeartbeatRelay(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b, !(N n)) WITHIN 40")
	en, err := New(p, core.Options{}, Options{Controller: staticCtrl(t, 30), StartNative: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []plan.Match
	got = append(got, en.Process(event.Event{Type: "A", TS: 10, Seq: 1})...)
	got = append(got, en.Process(event.Event{Type: "B", TS: 20, Seq: 2})...)
	if len(got) != 0 {
		t.Fatalf("trailing negation gap unsealed, yet %d matches emitted", len(got))
	}
	// Heartbeat to 10+40+30+1: frontier passes the gap end (first+W=50).
	got = append(got, en.Advance(81)...)
	if len(got) != 1 {
		t.Fatalf("heartbeat should seal exactly 1 match, got %d", len(got))
	}
	if got[0].EmitClock != 81 {
		t.Fatalf("sealed match not stamped with the heartbeat clock: EmitClock %d", got[0].EmitClock)
	}
}

// TestSwitchTraceAndMetrics: a forced switch must bump the counter and
// emit OpSwitch with the target mode and the sealed cut.
func TestSwitchTraceAndMetrics(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	var switchTE *obsv.TraceEvent
	hook := obsv.TraceFunc(func(te obsv.TraceEvent) {
		if te.Op == obsv.OpSwitch {
			cp := te
			switchTE = &cp
		}
	})
	en, err := New(p, core.Options{Env: engine.Env{Trace: hook}}, Options{Controller: staticCtrl(t, 10)})
	if err != nil {
		t.Fatal(err)
	}
	en.Process(event.Event{Type: "A", TS: 100, Seq: 1})
	en.ForceSwitch()
	if en.Mode() != ModeNative {
		t.Fatalf("mode %q after forced switch", en.Mode())
	}
	if switchTE == nil {
		t.Fatal("no OpSwitch trace event")
	}
	if switchTE.Type != ModeNative || switchTE.TS != 90 {
		t.Fatalf("OpSwitch = %+v, want target native at cut 90", switchTE)
	}
	if en.Metrics().Switches != 1 {
		t.Fatalf("metrics switches = %d", en.Metrics().Switches)
	}
	// And back.
	en.ForceSwitch()
	if en.Mode() != ModeSpeculate || en.Switches() != 2 {
		t.Fatalf("mode %q switches %d", en.Mode(), en.Switches())
	}
}

// TestRequiresController: construction without a controller must fail.
func TestRequiresController(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	if _, err := New(p, core.Options{}, Options{}); err == nil {
		t.Fatal("expected error for nil controller")
	}
}

// TestDrainMatchesOracleNoSwitch sanity-checks both pure modes through the
// meta-engine (no switch at all): each must equal the oracle on its own.
func TestDrainMatchesOracleNoSwitch(t *testing.T) {
	for _, q := range testQueries {
		p := compile(t, q)
		sorted := gen.Uniform(150, testTypes, 3, 6, 21)
		k := event.Time(40)
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: k, Seed: 5})
		want := oracle.Matches(p, sorted)
		for _, startNative := range []bool{false, true} {
			en, err := New(p, core.Options{}, Options{Controller: staticCtrl(t, k), StartNative: startNative})
			if err != nil {
				t.Fatal(err)
			}
			got := engine.Drain(en, shuffled)
			if ok, diff := plan.SameResults(want, got); !ok {
				t.Fatalf("%s startNative=%v: hybrid != oracle:\n%s", q, startNative, diff)
			}
		}
	}
}

// TestSwitchCycleKeepsFinalMatches: a switch flips a policy on live state —
// it rebuilds nothing and withdraws nothing. Across a forced
// speculate→sealed→speculate cycle the only retractions are the ones a late
// negative forces (so none names a match of the final result set), and the
// meta-engine's state is the kernel's own — stacks, negatives, pending and
// vulnerable matches — with no second copy of the recent stream.
func TestSwitchCycleKeepsFinalMatches(t *testing.T) {
	for _, q := range testQueries {
		p := compile(t, q)
		for seed := int64(0); seed < 5; seed++ {
			sorted := gen.Uniform(180, testTypes, 3, 6, seed)
			k := event.Time(40)
			shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: k, Seed: seed + 7})
			final := map[string]bool{}
			for _, m := range oracle.Matches(p, sorted) {
				final[m.Key()] = true
			}
			en, err := New(p, core.Options{}, Options{Controller: staticCtrl(t, k)})
			if err != nil {
				t.Fatal(err)
			}
			check := func(ms []plan.Match) {
				t.Helper()
				for _, m := range ms {
					if m.Kind == plan.Retract && final[m.Key()] {
						t.Fatalf("%s seed %d: retracted %s, which is in the final result set", q, seed, m.Key())
					}
				}
				snap := en.StateSnapshot()
				want := snap.Pending + snap.Vulnerable
				for _, n := range snap.StackDepths {
					want += n
				}
				for _, n := range snap.NegStoreSizes {
					want += n
				}
				if got := en.StateSize(); got != want {
					t.Fatalf("%s seed %d: StateSize %d, kernel holds %d", q, seed, got, want)
				}
			}
			for i, e := range shuffled {
				check(en.Process(e))
				if i == len(shuffled)/3 || i == 2*len(shuffled)/3 {
					check(en.ForceSwitch())
				}
			}
			check(en.Flush())
			if en.Mode() != ModeSpeculate || en.Switches() != 2 {
				t.Fatalf("mode %q after %d switches", en.Mode(), en.Switches())
			}
		}
	}
}

// TestRestoredSwitchesWhereUninterrupted: a hybrid checkpointed at any event
// and restored switches at the same events as the uninterrupted run and
// emits the same sequence, whether the restored kernel publishes into a
// fresh series (a new process) or into the series the checkpointed one
// counted into (a supervisor's restart re-binds it): the checkpoint carries
// the dwell and the open decision window's partial counts, not the series'
// totals.
func TestRestoredSwitchesWhereUninterrupted(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 60")
	// Stretches of triples whose N arrives late (each retracts a speculative
	// match) alternate with in-order pairs (no disorder): the retraction SLO
	// drives the engine to native, the calm drives it back.
	var arrival []event.Event
	seq := event.Seq(0)
	mk := func(typ string, ts event.Time) event.Event {
		seq++
		return event.Event{Type: typ, TS: ts, Seq: seq}
	}
	for i := 0; i < 120; i++ {
		t0 := event.Time(i * 10)
		if i/20%2 == 0 {
			arrival = append(arrival, mk("A", t0), mk("B", t0+2), mk("N", t0+1))
		} else {
			arrival = append(arrival, mk("A", t0), mk("B", t0+2))
		}
	}
	fresh := func(series *obsv.Series) *Engine {
		ctrl, err := adaptive.NewController(adaptive.Config{DecisionEvery: 12, SLO: adaptive.SLO{MaxRetractionRate: 0.05}}, 20)
		if err != nil {
			t.Fatal(err)
		}
		en, err := New(p, core.Options{Env: engine.Env{Series: series}}, Options{Controller: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		return en
	}
	// run feeds events, recording the output and the switch count after each.
	run := func(en *Engine, events []event.Event, out []plan.Match, switches []uint64) ([]plan.Match, []uint64) {
		for _, e := range events {
			out = append(out, en.Process(e)...)
			switches = append(switches, en.Switches())
		}
		return out, switches
	}
	want, wantSw := run(fresh(nil), arrival, nil, nil)
	if wantSw[len(wantSw)-1] < 3 {
		t.Fatalf("the stream switches %d times: too few to compare", wantSw[len(wantSw)-1])
	}
	for cut := 0; cut <= len(arrival); cut += 7 {
		for _, rebind := range []bool{false, true} {
			series := obsv.NewSeries("hybrid")
			en := fresh(series)
			got, sw := run(en, arrival[:cut], nil, nil)
			blob, err := engine.Seal(en.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			env := engine.Env{}
			if rebind {
				env.Series = series
			}
			sec, err := engine.Open(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			restored, err := Restore(p, env, sec)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			got, sw = run(restored, arrival[cut:], got, sw)
			if fmt.Sprint(sw) != fmt.Sprint(wantSw) {
				t.Fatalf("cut %d rebind=%v: switch counts per event\n got  %v\n want %v", cut, rebind, sw, wantSw)
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("cut %d rebind=%v: the restored run emits otherwise", cut, rebind)
			}
		}
	}
}
