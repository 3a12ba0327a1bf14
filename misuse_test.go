package oostream

import (
	"errors"
	"io"
	"strings"
	"testing"

	"oostream/internal/engine"
)

// TestMisuseIsAnError: every refusal of the facade returns nil and is
// recorded in Err, without a panic, on Engine and QuerySet, in memory and
// durable: an event, a batch or a heartbeat after Flush; on a durable one
// also a call before Start, an event whose Seq is 0, and a heartbeat (the
// log records none). A durable facade's Checkpoint is refused too, wrapping
// engine.ErrNoCheckpoint: its checkpoints are its directory's.
func TestMisuseIsAnError(t *testing.T) {
	q := pairQuery(t)
	type facadeAPI interface {
		Start() ([]Match, error)
		Process(Event) []Match
		ProcessBatch([]Event) []Match
		Advance(Time) []Match
		Flush() []Match
		Checkpoint(io.Writer) error
		Err() error
		Close() error
	}
	sc := func(t *testing.T) SupervisorConfig {
		return SupervisorConfig{Dir: t.TempDir(), DisableFsync: true}
	}
	registered := func(t *testing.T) func(*QuerySet, error) facadeAPI {
		return func(qs *QuerySet, err error) facadeAPI {
			if err == nil {
				err = qs.Register("pair", q)
			}
			if err != nil {
				t.Fatal(err)
			}
			return qs
		}
	}
	kinds := []struct {
		name    string
		durable bool
		open    func(t *testing.T) facadeAPI
	}{
		{"engine", false, func(t *testing.T) facadeAPI { return MustNewEngine(q, Config{K: 10}) }},
		{"queryset", false, func(t *testing.T) facadeAPI { return registered(t)(NewQuerySet(QuerySetConfig{K: 10})) }},
		{"durable-engine", true, func(t *testing.T) facadeAPI {
			en, err := NewSupervisedEngine(q, Config{K: 10}, sc(t))
			if err != nil {
				t.Fatal(err)
			}
			return en
		}},
		{"durable-queryset", true, func(t *testing.T) facadeAPI {
			return registered(t)(NewSupervisedQuerySet(QuerySetConfig{K: 10}, sc(t)))
		}},
	}
	a, b := pairEvent("A", 1, 1, 7), pairEvent("B", 2, 2, 7)
	flushed := func(s facadeAPI) { s.Process(a); s.Flush() }
	misuses := []struct {
		name        string
		durableOnly bool
		start       bool
		setup       func(facadeAPI)
		call        func(facadeAPI) []Match
		want        string // in Err
	}{
		{"Process after Flush", false, true, flushed, func(s facadeAPI) []Match { return s.Process(b) }, "sealed"},
		{"ProcessBatch after Flush", false, true, flushed, func(s facadeAPI) []Match { return s.ProcessBatch([]Event{b}) }, "sealed"},
		{"Advance after Flush", false, true, flushed, func(s facadeAPI) []Match { return s.Advance(50) }, "sealed"},
		{"Process before Start", true, false, nil, func(s facadeAPI) []Match { return s.Process(a) }, "Start"},
		{"Seq 0", true, true, nil, func(s facadeAPI) []Match { return s.Process(Event{Type: "A", TS: 1}) }, "Seq 0"},
		{"Advance", true, true, func(s facadeAPI) { s.Process(a) }, func(s facadeAPI) []Match { return s.Advance(50) }, "heartbeats"},
	}
	for _, kind := range kinds {
		for _, m := range misuses {
			if m.durableOnly && !kind.durable {
				continue
			}
			t.Run(kind.name+"/"+m.name, func(t *testing.T) {
				s := kind.open(t)
				t.Cleanup(func() { s.Close() })
				if m.start {
					if _, err := s.Start(); err != nil {
						t.Fatal(err)
					}
				}
				if m.setup != nil {
					m.setup(s)
				}
				if err := s.Err(); err != nil {
					t.Fatalf("setup failed: %v", err)
				}
				var out []Match
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panicked: %v", r)
						}
					}()
					out = m.call(s)
				}()
				if out != nil {
					t.Errorf("returned %v, want nil", out)
				}
				if err := s.Err(); err == nil || !strings.Contains(err.Error(), m.want) {
					t.Errorf("Err = %v, want one naming %q", err, m.want)
				}
			})
		}
		if kind.durable {
			t.Run(kind.name+"/Checkpoint", func(t *testing.T) {
				s := kind.open(t)
				t.Cleanup(func() { s.Close() })
				if err := s.Checkpoint(io.Discard); !errors.Is(err, engine.ErrNoCheckpoint) {
					t.Errorf("Checkpoint = %v, want engine.ErrNoCheckpoint", err)
				}
			})
		}
	}
}
