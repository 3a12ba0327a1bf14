package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"oostream/internal/event"
)

// Op enumerates the match-lifecycle steps a TraceHook observes.
type Op uint8

// Trace operations, in rough lifecycle order.
const (
	// OpAdmit: a pattern-relevant event entered the engine.
	OpAdmit Op = iota + 1
	// OpDrop: an event was rejected (disorder-bound violation or
	// admission-control drop). N is 0.
	OpDrop
	// OpStackPush: an event was inserted into an active instance stack.
	// N is the pattern position.
	OpStackPush
	// OpRepair: an out-of-order insertion repointed predecessor (RIP)
	// pointers. N is the number of repaired instances.
	OpRepair
	// OpTrigger: construction was triggered. N is the trigger position.
	OpTrigger
	// OpEmit: an Insert match was emitted. N is the match's event count.
	OpEmit
	// OpRetract: a Retract compensation was emitted.
	OpRetract
	// OpPurge: a purge pass reclaimed state. N is the item count.
	OpPurge
	// OpHeartbeat: an Advance punctuation moved the clock. TS is the
	// promised time.
	OpHeartbeat
	// OpCheckpoint: a durable checkpoint was written. N is its byte size.
	OpCheckpoint
	// 11 is reserved: it numbered a step that is gone, and dumps carry Op
	// as a number.
	_
	// OpFlush: the stream was sealed.
	OpFlush
	// OpShed: an event was deliberately discarded by overload degradation
	// (the Limits policy), distinct from OpDrop's bound violation. N is 0.
	OpShed
	// OpSwitch: the hybrid meta-engine switched strategy. Type carries the
	// new mode ("speculate" or "native"); TS is the sealed handoff
	// watermark; N is the number of tail events replayed.
	OpSwitch
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpAdmit:
		return "admit"
	case OpDrop:
		return "drop"
	case OpStackPush:
		return "push"
	case OpRepair:
		return "repair"
	case OpTrigger:
		return "trigger"
	case OpEmit:
		return "emit"
	case OpRetract:
		return "retract"
	case OpPurge:
		return "purge"
	case OpHeartbeat:
		return "heartbeat"
	case OpCheckpoint:
		return "checkpoint"
	case OpFlush:
		return "flush"
	case OpShed:
		return "shed"
	case OpSwitch:
		return "switch"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// TraceEvent is one lifecycle observation. Fields beyond Op are
// op-dependent (see the Op constants); zero values mean "not applicable".
type TraceEvent struct {
	// Op is the lifecycle step.
	Op Op `json:"op"`
	// Engine names the reporting engine (its series name, or Name()).
	Engine string `json:"engine,omitempty"`
	// Type is the event type involved, when one is.
	Type string `json:"type,omitempty"`
	// TS is the event or punctuation timestamp.
	TS event.Time `json:"ts"`
	// Seq is the involved event's sequence number, when one is.
	Seq event.Seq `json:"seq,omitempty"`
	// N is the op-dependent count (position, purged items, repaired
	// pointers, checkpoint bytes).
	N int `json:"n,omitempty"`
	// Match is the canonical match identity ("|"-joined event Seqs) on
	// emit/retract ops when provenance is enabled; it joins trace events
	// against lineage records (espexplain's "why did match M emit?").
	Match string `json:"match,omitempty"`
}

// String renders the trace event on one line.
func (t TraceEvent) String() string {
	s := fmt.Sprintf("%-10s engine=%s type=%s ts=%d seq=%d n=%d",
		t.Op, t.Engine, t.Type, t.TS, t.Seq, t.N)
	if t.Match != "" {
		s += " match=" + t.Match
	}
	return s
}

// TraceHook observes match-lifecycle steps. Implementations must be safe
// for concurrent use (one hook may serve engines on different goroutines,
// and /debug/flight reads a recorder while its engine writes it) and must
// not retain the TraceEvent beyond the call. A layer reports each step
// through its engine.Tap, which builds a TraceEvent only when a hook is
// set.
type TraceHook interface {
	Trace(TraceEvent)
}

// TraceFunc adapts a function to the TraceHook interface.
type TraceFunc func(TraceEvent)

// Trace implements TraceHook.
func (f TraceFunc) Trace(ev TraceEvent) { f(ev) }

// MultiHook fans one trace stream out to several hooks.
type MultiHook []TraceHook

// Trace implements TraceHook.
func (m MultiHook) Trace(ev TraceEvent) {
	for _, h := range m {
		if h != nil {
			h.Trace(ev)
		}
	}
}

// FlightRecorder is the ring-buffer TraceHook: it retains the most recent
// observations at a fixed memory cost, for dumping on panic or on demand
// (the /debug/flight endpoint). It is safe for concurrent use.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []TraceEvent
	next  int
	full  bool
	total uint64
}

// NewFlightRecorder creates a recorder retaining the last n events
// (minimum 1).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	return &FlightRecorder{buf: make([]TraceEvent, n)}
}

// Trace implements TraceHook.
func (f *FlightRecorder) Trace(ev TraceEvent) {
	f.mu.Lock()
	f.buf[f.next] = ev
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
	f.total++
	f.mu.Unlock()
}

// Total returns how many events were ever recorded (including overwritten
// ones).
func (f *FlightRecorder) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Dump returns the retained events, oldest first.
func (f *FlightRecorder) Dump() []TraceEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.full {
		return append([]TraceEvent(nil), f.buf[:f.next]...)
	}
	out := make([]TraceEvent, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	return append(out, f.buf[:f.next]...)
}

// WriteTo renders the retained events as text, oldest first — the same
// order Dump returns — the dump-on-panic format.
func (f *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	var written int64
	for _, ev := range f.Dump() {
		n, err := fmt.Fprintln(w, ev)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// WriteJSON renders the retained events as JSON Lines, oldest first — the
// machine-readable dump espexplain replays (one TraceEvent object per
// line).
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range f.Dump() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
