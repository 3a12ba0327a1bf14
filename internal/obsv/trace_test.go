package obsv

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"oostream/internal/event"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 1; i <= 5; i++ {
		f.Trace(TraceEvent{Op: OpAdmit, N: i})
	}
	got := f.Dump()
	if len(got) != 3 {
		t.Fatalf("dump len = %d, want 3", len(got))
	}
	for i, want := range []int{3, 4, 5} {
		if got[i].N != want {
			t.Fatalf("dump[%d].N = %d, want %d (oldest first)", i, got[i].N, want)
		}
	}
	if f.Total() != 5 {
		t.Fatalf("total = %d, want 5", f.Total())
	}
}

// TestFlightRecorderWrapOrder pins Dump's oldest-first ordering around
// the ring's wrap boundary: exactly at capacity (next has wrapped to 0,
// so the buffer IS the ordered dump), one past capacity (the dump starts
// mid-buffer), and cases on either side. WriteTo and WriteJSON must
// stream the same order Dump returns.
func TestFlightRecorderWrapOrder(t *testing.T) {
	const capacity = 4
	tests := []struct {
		name string
		n    int // events traced, numbered 1..n
		want []int
	}{
		{"under capacity", 3, []int{1, 2, 3}},
		{"exactly capacity", capacity, []int{1, 2, 3, 4}},
		{"capacity plus one", capacity + 1, []int{2, 3, 4, 5}},
		{"two full wraps", 2*capacity + 2, []int{7, 8, 9, 10}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := NewFlightRecorder(capacity)
			for i := 1; i <= tt.n; i++ {
				f.Trace(TraceEvent{Op: OpAdmit, Seq: event.Seq(i), N: i})
			}
			got := f.Dump()
			if len(got) != len(tt.want) {
				t.Fatalf("dump len = %d, want %d", len(got), len(tt.want))
			}
			for i, want := range tt.want {
				if got[i].N != want {
					t.Fatalf("dump[%d].N = %d, want %d (oldest first)", i, got[i].N, want)
				}
			}

			// WriteTo streams the same order.
			var text strings.Builder
			if _, err := f.WriteTo(&text); err != nil {
				t.Fatal(err)
			}
			lines := nonEmptyLines(text.String())
			if len(lines) != len(tt.want) {
				t.Fatalf("WriteTo emitted %d lines, want %d", len(lines), len(tt.want))
			}
			for i, want := range tt.want {
				if !strings.Contains(lines[i], fmt.Sprintf("n=%d", want)) {
					t.Errorf("WriteTo line %d = %q, want n=%d", i, lines[i], want)
				}
			}

			// WriteJSON streams the same order, decodably.
			var jsonl strings.Builder
			if err := f.WriteJSON(&jsonl); err != nil {
				t.Fatal(err)
			}
			jlines := nonEmptyLines(jsonl.String())
			if len(jlines) != len(tt.want) {
				t.Fatalf("WriteJSON emitted %d lines, want %d", len(jlines), len(tt.want))
			}
			for i, want := range tt.want {
				var te TraceEvent
				if err := json.Unmarshal([]byte(jlines[i]), &te); err != nil {
					t.Fatalf("WriteJSON line %d not JSON: %v", i, err)
				}
				if te.N != want || te.Op != OpAdmit {
					t.Errorf("WriteJSON line %d = %+v, want N=%d", i, te, want)
				}
			}
		})
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

func TestFlightRecorderPartial(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Trace(TraceEvent{Op: OpEmit})
	f.Trace(TraceEvent{Op: OpPurge})
	got := f.Dump()
	if len(got) != 2 || got[0].Op != OpEmit || got[1].Op != OpPurge {
		t.Fatalf("dump = %v", got)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				f.Trace(TraceEvent{Op: OpStackPush, N: i})
			}
		}()
	}
	wg.Wait()
	if f.Total() != 4000 {
		t.Fatalf("total = %d", f.Total())
	}
	if len(f.Dump()) != 16 {
		t.Fatalf("dump len = %d", len(f.Dump()))
	}
}

func TestTraceWriteTo(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Trace(TraceEvent{Op: OpEmit, Engine: "native", Type: "EXIT", TS: 42, Seq: 7, N: 2})
	var b strings.Builder
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "emit") || !strings.Contains(b.String(), "engine=native") {
		t.Fatalf("dump text = %q", b.String())
	}
}

// TestOpStrings pins every op's number and name: dumps carry Op as a JSON
// number (FlightRecorder.WriteJSON, read back by espexplain -flight), so a
// number once given is never reused, and 11 stays reserved.
func TestOpStrings(t *testing.T) {
	for _, c := range []struct {
		op   Op
		n    uint8
		name string
	}{
		{OpAdmit, 1, "admit"}, {OpDrop, 2, "drop"}, {OpStackPush, 3, "push"},
		{OpRepair, 4, "repair"}, {OpTrigger, 5, "trigger"}, {OpEmit, 6, "emit"},
		{OpRetract, 7, "retract"}, {OpPurge, 8, "purge"}, {OpHeartbeat, 9, "heartbeat"},
		{OpCheckpoint, 10, "checkpoint"}, {Op(11), 11, "op(11)"}, {OpFlush, 12, "flush"},
		{OpShed, 13, "shed"}, {OpSwitch, 14, "switch"}, {Op(99), 99, "op(99)"},
	} {
		if uint8(c.op) != c.n || c.op.String() != c.name {
			t.Errorf("op %d %q, want %d %q", uint8(c.op), c.op.String(), c.n, c.name)
		}
	}
}

func TestMultiHookAndTraceFunc(t *testing.T) {
	var a, b int
	m := MultiHook{TraceFunc(func(TraceEvent) { a++ }), nil, TraceFunc(func(TraceEvent) { b++ })}
	m.Trace(TraceEvent{Op: OpAdmit})
	if a != 1 || b != 1 {
		t.Fatalf("multi hook fanout a=%d b=%d", a, b)
	}
}
