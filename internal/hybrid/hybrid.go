// Package hybrid implements the SLO-driven meta-engine: one out-of-order
// kernel (internal/core) whose emission policy it flips — emit-then-retract
// (low latency, revisable output) while disorder is cheap, seal-then-emit
// (final output, delayed by K) when the retraction rate or the disorder
// bound breaches the configured service-level objectives.
//
// The kernel does everything an adaptive engine does: it feeds the
// controller, admits against the monotone safe frontier, sheds under
// degradation, constructs, and purges. What lives here is the decision:
// per-window admission, disorder, and retraction rates read off the
// kernel's series, a dwell that damps oscillation, and the switch itself,
// which is core.Engine.SetEmitPolicy — no state is rebuilt or replayed,
// and that method's comment carries the argument for why net output stays
// the sealed-stream result across any number of switches (the differential
// harness enforces it against the oracle).
package hybrid

import (
	"fmt"
	"io"

	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/plan"
	"oostream/internal/provenance"
)

// Mode names the policy currently in force (the kernel's own names).
const (
	ModeSpeculate = "speculate"
	ModeNative    = "native"
)

// Options configure the hybrid meta-engine.
type Options struct {
	// Controller derives the dynamic K and carries the SLO targets and
	// degradation limits. Required; the kernel feeds it (owner role), so it
	// must not be fed by anyone else.
	Controller *adaptive.Controller
	// StartNative starts in native mode instead of the default speculative
	// mode (for streams known to open with heavy disorder).
	StartNative bool
	// MinDwell is the minimum number of controller decision windows between
	// automatic switches, damping oscillation. 0 selects the default (2).
	MinDwell int
}

const defaultMinDwell = 2

// fallbackOOORate is the native→speculate threshold on the windowed
// out-of-order fraction, used when SLO.MaxLatency is unset: with almost no
// disorder, speculation retracts almost nothing, so its latency win is free.
const fallbackOOORate = 0.01

// Engine is the switching meta-engine: the kernel's contract, minus a
// durable format.
type Engine struct {
	opts Options
	core *core.Engine
	// series is the one the kernel publishes into; the decision windows are
	// differences of its counters.
	series *obsv.Series

	switches uint64
	// win holds the counters at the start of the current decision window.
	win   counters
	dwell int
}

// counters are the kernel figures the switch policy is a function of.
type counters struct {
	admitted, ooo, retracted uint64
}

var _ engine.Engine = (*Engine)(nil)

// New builds a hybrid meta-engine over a kernel configured by kernel (its
// disorder bound, emission policy, and controller fields are overridden),
// starting in speculative mode (or native with opts.StartNative). The
// kernel carries every instrument of kernel.Env; the decision windows are
// read off its series.
func New(p *plan.Plan, kernel core.Options, opts Options) (*Engine, error) {
	if opts.Controller == nil {
		return nil, fmt.Errorf("hybrid engine requires an adaptive controller")
	}
	if opts.MinDwell == 0 {
		opts.MinDwell = defaultMinDwell
	}
	if opts.MinDwell < 0 {
		return nil, fmt.Errorf("MinDwell must be >= 0, got %d", opts.MinDwell)
	}
	kernel.Adaptive = opts.Controller
	kernel.Emit = core.EmitThenRetract
	if opts.StartNative {
		kernel.Emit = core.SealThenEmit
	}
	if kernel.Env.Series == nil {
		// A named series of its own keeps the kernel's trace events under
		// the meta-engine's identity when no registry series is handed over.
		kernel.Env.Series = obsv.NewSeries("hybrid")
	}
	k, err := core.New(p, kernel)
	if err != nil {
		return nil, err
	}
	en := &Engine{opts: opts, core: k, series: kernel.Env.Series}
	en.win = en.read()
	return en, nil
}

// Name implements engine.Engine.
func (en *Engine) Name() string { return "hybrid" }

// Mode returns the policy currently in force.
func (en *Engine) Mode() string { return en.core.EmitPolicy().String() }

// Switches returns how many strategy switches have happened.
func (en *Engine) Switches() uint64 { return en.switches }

// StateSize implements engine.Engine: the kernel's state, nothing else.
func (en *Engine) StateSize() int { return en.core.StateSize() }

// Metrics implements engine.Engine: the kernel's series, which is the
// switch's (it adds no instrument of its own).
func (en *Engine) Metrics() obsv.Snapshot { return en.core.Metrics() }

// Process implements engine.Engine.
func (en *Engine) Process(e event.Event) []plan.Match {
	return en.decide(en.core.Process(e))
}

// ProcessBatch implements engine.Engine. A switch changes what the
// following event emits, so the policy runs after every event, exactly as
// on the per-event path.
func (en *Engine) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	for i := range batch {
		out = append(out, en.Process(batch[i])...)
	}
	return out
}

// Advance implements engine.Engine.
func (en *Engine) Advance(ts event.Time) []plan.Match { return en.core.Advance(ts) }

// Checkpoint implements engine.Engine: the switch state (dwell, window
// counters) has no durable format, and the kernel refuses while speculative.
func (en *Engine) Checkpoint(io.Writer) error {
	return fmt.Errorf("strategy %q: %w", en.Name(), engine.ErrNoCheckpoint)
}

// Flush implements engine.Engine.
func (en *Engine) Flush() []plan.Match { return en.core.Flush() }

func (en *Engine) read() counters {
	s := en.series
	return counters{
		admitted:  s.EventsIn.Load() - s.EventsLate.Load() - s.SheddedEvents.Load(),
		ooo:       s.EventsOOO.Load(),
		retracted: s.Retractions.Load(),
	}
}

// decide runs the switch policy once a controller decision window's worth
// of events has been admitted since the last one.
func (en *Engine) decide(out []plan.Match) []plan.Match {
	now := en.read()
	n := now.admitted - en.win.admitted
	ctrl := en.opts.Controller
	if n < uint64(ctrl.Config().DecisionEvery) {
		return out
	}
	retRate := float64(now.retracted-en.win.retracted) / float64(n)
	oooRate := float64(now.ooo-en.win.ooo) / float64(n)
	en.win = now
	en.dwell++
	if en.dwell < en.opts.MinDwell {
		return out
	}
	slo := ctrl.SLO()
	nomK := ctrl.NominalK()
	switch en.core.EmitPolicy() {
	case core.EmitThenRetract:
		// Speculation is violating the SLO when its revision churn exceeds
		// the tolerated retraction rate, or when the disorder bound has grown
		// past the latency target (each result stays revisable for ~K, so a
		// consumer waiting for finality pays more than MaxLatency).
		if (slo.MaxRetractionRate > 0 && retRate > slo.MaxRetractionRate) ||
			(slo.MaxLatency > 0 && nomK > slo.MaxLatency) {
			out = append(out, en.ForceSwitch()...)
		}
	case core.SealThenEmit:
		// Native sealing delays every result by ~K; fall back to speculation
		// once K has shrunk well under the latency target (hysteresis: half),
		// or — with no latency target — once disorder is all but gone.
		if slo.MaxLatency > 0 {
			if nomK <= slo.MaxLatency/2 {
				out = append(out, en.ForceSwitch()...)
			}
		} else if oooRate <= fallbackOOORate && (slo.MaxRetractionRate > 0 || retRate == 0) {
			out = append(out, en.ForceSwitch()...)
		}
	}
	return out
}

// ForceSwitch immediately flips to the other policy and returns what the
// flip releases: the pending bindings that pass the negatives seen so far
// when speculation resumes, nothing when sealing does. Test and operational
// hook; the differential harness uses it to force switches at chosen points.
func (en *Engine) ForceSwitch() []plan.Match {
	target := core.SealThenEmit
	if en.core.EmitPolicy() == core.SealThenEmit {
		target = core.EmitThenRetract
	}
	en.switches++
	en.dwell = 0
	return en.core.SetEmitPolicy(target)
}

// StateSnapshot implements engine.Engine: the kernel's snapshot
// with the mode and switch count in its adaptive block.
func (en *Engine) StateSnapshot() *provenance.StateSnapshot {
	s := en.core.StateSnapshot()
	s.Adaptive.Mode = en.Mode()
	s.Adaptive.Switches = en.switches
	return s
}
