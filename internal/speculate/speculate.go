// Package speculate is what remains of the separate speculative engine.
// Speculation is an emission policy of the one out-of-order kernel
// (core.EmitThenRetract); nothing in the library imports this package. It
// exists only because benchmark/layers.go, which a library change must
// leave byte-identical, compiles against these three declarations.
package speculate

import (
	"oostream/internal/core"
	"oostream/internal/event"
	"oostream/internal/plan"
)

// Engine is the kernel.
type Engine = core.Engine

// Options carries the disorder bound.
type Options struct {
	K event.Time
}

// New builds the kernel under the emit-then-retract policy.
func New(p *plan.Plan, opts Options) (*Engine, error) {
	return core.New(p, core.Options{K: opts.K, Emit: core.EmitThenRetract})
}
