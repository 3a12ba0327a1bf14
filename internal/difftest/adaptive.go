package difftest

import (
	"bytes"
	"fmt"

	"oostream"
	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/hybrid"
	"oostream/internal/obsv"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

// RunAdaptive is the adaptive-disorder-control differential: for a trial's
// (query, arrival, K) it checks the three correctness claims the adaptive
// subsystem makes, each reducible to the oracle on a sorted event set.
//
//   - Dynamic K (native): an adaptive engine's net output equals the
//     oracle over exactly the events it admitted (everything minus the
//     traced drops and sheds), AND equals a static-K run with
//     K = MaxKObserved fed only the admitted events — the monotone
//     frontier makes dynamic K a pure admission filter.
//   - Shedding (kslack): with a tiny buffer limit, the shed events are
//     exactly those traced and counted, and the net output equals the
//     oracle over the surviving events.
//   - Hybrid switching: with a static bound dominating the disorder, the
//     net output across forced switches (at len/3 and 2·len/3) equals the
//     full oracle; with adaptive K on top, it equals the admitted-events
//     oracle. The facade StrategyHybrid run and the adaptive-native
//     checkpoint round-trip must agree too.
//
// Like Run it is a pure function of the Case, so shrinking is sound.
func RunAdaptive(c Case) *Failure {
	if len(c.Arrival) == 0 {
		return nil
	}
	p, err := plan.ParseAndCompile(c.Query, Schema())
	if err != nil {
		return &Failure{Case: c, Check: "compile", Diff: err.Error()}
	}
	q, err := oostream.Compile(c.Query, Schema())
	if err != nil {
		return &Failure{Case: c, Check: "compile", Diff: err.Error()}
	}
	sorted := make([]event.Event, len(c.Arrival))
	copy(sorted, c.Arrival)
	event.SortByTime(sorted)
	truth := oracle.Matches(p, sorted)

	// An adaptive engine that must genuinely adapt: it starts at a quarter
	// of the case bound and may grow back up to it, with a fast decision
	// cadence so even short trials make several decisions.
	acfg := oostream.Config{
		Strategy: oostream.StrategyNative,
		K:        1 + c.K/4,
		Adaptive: oostream.Adaptive{
			Enabled:       true,
			MinK:          1,
			DecisionEvery: 16,
			ShrinkAfter:   2,
			Limits:        oostream.Limits{MaxLag: c.K},
		},
	}

	if f := adaptiveNative(c, p, q, acfg); f != nil {
		return f
	}
	if f := adaptiveShedding(c, p, q, acfg); f != nil {
		return f
	}
	if f := hybridSwitches(c, p, truth); f != nil {
		return f
	}
	if ok, diff := plan.SameResults(truth, run(q, oostream.Config{Strategy: oostream.StrategyHybrid, K: c.K}, c.Arrival)); !ok {
		return &Failure{Case: c, Check: "hybrid-facade", Diff: diff, Truth: len(truth)}
	}
	return adaptiveCheckpoint(c, q, acfg)
}

// rejectedCollector gathers the Seq numbers of dropped (late) and shed
// events from the trace stream.
type rejectedCollector struct {
	dropped map[event.Seq]bool
	shed    map[event.Seq]bool
}

func newRejectedCollector() *rejectedCollector {
	return &rejectedCollector{dropped: map[event.Seq]bool{}, shed: map[event.Seq]bool{}}
}

func (rc *rejectedCollector) Trace(te obsv.TraceEvent) {
	switch te.Op {
	case obsv.OpDrop:
		rc.dropped[te.Seq] = true
	case obsv.OpShed:
		rc.shed[te.Seq] = true
	}
}

// admitted returns the arrival subsequence that survived admission.
func (rc *rejectedCollector) admitted(arrival []event.Event) []event.Event {
	out := make([]event.Event, 0, len(arrival))
	for _, e := range arrival {
		if !rc.dropped[e.Seq] && !rc.shed[e.Seq] {
			out = append(out, e)
		}
	}
	return out
}

// oracleOn computes the oracle over an arbitrary event subset, sorted.
func oracleOn(p *plan.Plan, events []event.Event) []plan.Match {
	s := make([]event.Event, len(events))
	copy(s, events)
	event.SortByTime(s)
	return oracle.Matches(p, s)
}

// adaptiveNative checks the dynamic-K claims on the native engine.
func adaptiveNative(c Case, p *plan.Plan, q *oostream.Query, cfg oostream.Config) *Failure {
	rc := newRejectedCollector()
	cfg.Trace = rc
	en := oostream.MustNewEngine(q, cfg)
	got := en.ProcessAll(c.Arrival)
	admitted := rc.admitted(c.Arrival)
	wantAdm := oracleOn(p, admitted)
	if ok, diff := plan.SameResults(wantAdm, got); !ok {
		return &Failure{Case: c, Check: "adaptive-native", Diff: diff, Truth: len(wantAdm)}
	}
	// Accounting: the trace and the counters must agree on every rejection.
	m := en.Metrics()
	if int(m.EventsLate) != len(rc.dropped) || int(m.SheddedEvents) != len(rc.shed) {
		return &Failure{Case: c, Check: "adaptive-native-counts",
			Diff: fmt.Sprintf("late counter %d vs %d traced drops, shed counter %d vs %d traced sheds",
				m.EventsLate, len(rc.dropped), m.SheddedEvents, len(rc.shed))}
	}
	// The static-max-K equivalence: a plain native engine at K =
	// MaxKObserved, fed only the admitted events, reproduces the net
	// multiset (and drops nothing — every admitted event was within the
	// max bound of the clock at admission).
	snap := en.StateSnapshot()
	if snap == nil || snap.Adaptive == nil {
		return &Failure{Case: c, Check: "adaptive-native-snapshot", Diff: "no adaptive state in snapshot"}
	}
	sen := oostream.MustNewEngine(q, oostream.Config{Strategy: oostream.StrategyNative, K: oostream.Time(snap.Adaptive.MaxKObserved)})
	staticGot := sen.ProcessAll(admitted)
	if sm := sen.Metrics(); sm.EventsLate != 0 {
		return &Failure{Case: c, Check: "adaptive-native-staticmax",
			Diff: fmt.Sprintf("static K=MaxKObserved=%d run dropped %d admitted events", snap.Adaptive.MaxKObserved, sm.EventsLate)}
	}
	if ok, diff := plan.SameResults(staticGot, got); !ok {
		return &Failure{Case: c, Check: "adaptive-native-staticmax", Diff: diff, Truth: len(staticGot)}
	}
	return nil
}

// adaptiveShedding checks overload degradation on the kslack strategy: a
// deliberately tiny buffer limit forces sheds, which must be exactly the
// traced/counted events, with the net output exact over the survivors.
func adaptiveShedding(c Case, p *plan.Plan, q *oostream.Query, cfg oostream.Config) *Failure {
	rc := newRejectedCollector()
	cfg.Strategy, cfg.Trace = oostream.StrategyKSlack, rc
	cfg.Adaptive.Limits.MaxBufferedEvents = 3
	en := oostream.MustNewEngine(q, cfg)
	got := en.ProcessAll(c.Arrival)
	m := en.Metrics()
	if int(m.SheddedEvents) != len(rc.shed) {
		return &Failure{Case: c, Check: "adaptive-kslack-counts",
			Diff: fmt.Sprintf("shed counter %d vs %d traced sheds", m.SheddedEvents, len(rc.shed))}
	}
	survivors := rc.admitted(c.Arrival)
	want := oracleOn(p, survivors)
	if ok, diff := plan.SameResults(want, got); !ok {
		return &Failure{Case: c, Check: "adaptive-kslack-shed", Diff: diff, Truth: len(want)}
	}
	return nil
}

// hybridSwitches checks the meta-engine's switch protocol: forced switches
// at len/3 and 2·len/3 with a dominating static bound must not perturb the
// net multiset; with adaptive K the result is exact over the admitted set.
func hybridSwitches(c Case, p *plan.Plan, truth []plan.Match) *Failure {
	for _, startNative := range []bool{false, true} {
		ctrl, err := adaptive.NewController(adaptive.Config{}, c.K)
		if err != nil {
			return &Failure{Case: c, Check: "hybrid-switch", Diff: err.Error()}
		}
		en, err := hybrid.New(p, core.Options{}, hybrid.Options{Controller: ctrl, StartNative: startNative})
		if err != nil {
			return &Failure{Case: c, Check: "hybrid-switch", Diff: err.Error()}
		}
		var got []plan.Match
		for i, e := range c.Arrival {
			got = append(got, en.Process(e)...)
			if i == len(c.Arrival)/3 || i == 2*len(c.Arrival)/3 {
				got = append(got, en.ForceSwitch()...)
			}
		}
		got = append(got, en.Flush()...)
		if ok, diff := plan.SameResults(truth, got); !ok {
			return &Failure{Case: c, Check: fmt.Sprintf("hybrid-switch(startNative=%v)", startNative), Diff: diff, Truth: len(truth)}
		}
	}

	// Adaptive K inside the hybrid: net output equals the oracle over the
	// events the meta-engine admitted, across forced switches.
	ctrl, err := adaptive.NewController(adaptive.Config{
		Enabled: true, MinK: 1, DecisionEvery: 16, ShrinkAfter: 2,
		Limits: adaptive.Limits{MaxLag: c.K},
	}, 1+c.K/4)
	if err != nil {
		return &Failure{Case: c, Check: "hybrid-adaptive", Diff: err.Error()}
	}
	rc := newRejectedCollector()
	en, err := hybrid.New(p, core.Options{Env: engine.Env{Trace: rc}}, hybrid.Options{Controller: ctrl})
	if err != nil {
		return &Failure{Case: c, Check: "hybrid-adaptive", Diff: err.Error()}
	}
	var got []plan.Match
	for i, e := range c.Arrival {
		got = append(got, en.Process(e)...)
		if i == len(c.Arrival)/3 || i == 2*len(c.Arrival)/3 {
			got = append(got, en.ForceSwitch()...)
		}
	}
	got = append(got, en.Flush()...)
	want := oracleOn(p, rc.admitted(c.Arrival))
	if ok, diff := plan.SameResults(want, got); !ok {
		return &Failure{Case: c, Check: "hybrid-adaptive", Diff: diff, Truth: len(want)}
	}
	return nil
}

// adaptiveCheckpoint checks that the controller's state (estimator,
// frontier, published bounds) round-trips through a mid-stream
// checkpoint: the restored engine must finish the stream with the exact
// output of the uninterrupted run.
func adaptiveCheckpoint(c Case, q *oostream.Query, cfg oostream.Config) *Failure {
	full := run(q, cfg, c.Arrival)

	en := oostream.MustNewEngine(q, cfg)
	half := len(c.Arrival) / 2
	var got []plan.Match
	for _, e := range c.Arrival[:half] {
		got = append(got, en.Process(e)...)
	}
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		return &Failure{Case: c, Check: "adaptive-checkpoint", Diff: err.Error()}
	}
	restored, err := oostream.RestoreEngine(q, cfg, &buf)
	if err != nil {
		return &Failure{Case: c, Check: "adaptive-checkpoint", Diff: err.Error()}
	}
	for _, e := range c.Arrival[half:] {
		got = append(got, restored.Process(e)...)
	}
	got = append(got, restored.Flush()...)
	if ok, diff := plan.SameResults(full, got); !ok {
		return &Failure{Case: c, Check: "adaptive-checkpoint", Diff: diff, Truth: len(full)}
	}
	return nil
}
