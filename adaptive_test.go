package oostream

import (
	"fmt"
	"testing"

	"oostream/internal/gen"
)

// TestSupervisedAdaptiveMatchesMemory: a durable engine under an adaptive
// controller adapts as the in-memory one does. Lateness is the engine's to
// judge, by the bound the controller moves, so the two emit the same
// matches and agree on the largest bound, the late drops and the sheds; a
// durable run offered the second half of the stream twice emits nothing
// twice. Admission used to drop everything beyond the static K
// before the controller could see it, and the durable engine never adapted.
func TestSupervisedAdaptiveMatchesMemory(t *testing.T) {
	q := MustCompile("PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s", nil)
	events := gen.Shuffle(gen.RFID(gen.DefaultRFID(3000, 1)), gen.Disorder{Ratio: 0.3, MaxDelay: 2000, Seed: 1})
	for _, cfg := range []Config{
		{K: 10, Adaptive: Adaptive{Enabled: true, DecisionEvery: 32}},
		{K: 10, Adaptive: Adaptive{Enabled: true, DecisionEvery: 32, Limits: Limits{MaxBufferedEvents: 300}}},
	} {
		mem := MustNewEngine(q, cfg)
		want := mem.ProcessAll(events)
		durable := func(events []Event) (*Engine, []Match) {
			en, err := NewSupervisedEngine(q, cfg, SupervisorConfig{Dir: t.TempDir(), CheckpointEvery: 500, DisableFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := en.Start(); err != nil {
				t.Fatal(err)
			}
			got := en.ProcessAll(events)
			if err := en.Err(); err != nil {
				t.Fatal(err)
			}
			return en, got
		}

		en, got := durable(events)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			ok, diff := SameResults(want, got)
			t.Fatalf("%+v: durable run emits %d matches, in memory %d (same multiset %v)\n%s", cfg.Adaptive, len(got), len(want), ok, diff)
		}
		wm, gm := mem.Metrics(), en.Metrics()
		wk, gk := mem.StateSnapshot().Adaptive.MaxKObserved, en.StateSnapshot().Adaptive.MaxKObserved
		if wk != gk || wm.EventsLate != gm.EventsLate || wm.SheddedEvents != gm.SheddedEvents {
			t.Errorf("%+v: durable max K %d, late %d, shed %d; in memory %d, %d, %d",
				cfg.Adaptive, gk, gm.EventsLate, gm.SheddedEvents, wk, wm.EventsLate, wm.SheddedEvents)
		}
		if wk <= cfg.K || wm.EventsLate == 0 {
			t.Errorf("%+v: the stream neither moves K (max %d) nor drops an event late (%d): the test checks nothing", cfg.Adaptive, wk, wm.EventsLate)
		}

		_, again := durable(append(events[:len(events):len(events)], events[len(events)/2:]...))
		if ok, diff := SameResults(want, again); !ok {
			t.Errorf("%+v: duplicates re-offered:\n%s", cfg.Adaptive, diff)
		}
	}
}
