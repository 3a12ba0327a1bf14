package oostream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oostream/internal/gen"
	"oostream/internal/trace"
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

// The files under testdata/adaptive were written by the last version whose
// adaptive controller had a second cap (Adaptive.MaxK) and settable tuning,
// from the query below over stream.trace (657 events in arrival order):
//
//	maxk.ckpt    after 328 events, under Config{K: 10, Adaptive:
//	             Adaptive{Enabled: true, DecisionEvery: 32, MaxK: 700}}: the
//	             cap binds and K has reached it
//	limits.ckpt  after 328 events, under Config{K: 500, Adaptive:
//	             Adaptive{Limits: Limits{MaxBufferedEvents: 40}}}: K pinned at
//	             500, the controller degraded and shedding
//	*.rest       what that version emitted after restoring the checkpoint
//	             and taking the rest of the stream and a flush, one match a
//	             line, then the restored engine's late and shed counts and
//	             bounds
const adaptiveFixtureQuery = "PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WHERE s.id = e.id AND s.id = c.id WITHIN 6s"

func adaptiveFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata/adaptive", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestRestoreAdaptiveFixture: both checkpoints restore and continue to the
// output the version that wrote them produced, with the legacy cap folded
// into Limits.MaxLag; and the continuation checkpoints and restores again to
// the same output.
func TestRestoreAdaptiveFixture(t *testing.T) {
	q := MustCompile(adaptiveFixtureQuery, nil)
	events, err := trace.NewReader(bytes.NewReader(adaptiveFixture(t, "stream.trace"))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rest := events[328:]
	for _, name := range []string{"maxk", "limits"} {
		t.Run(name, func(t *testing.T) {
			continuation := func(ckpt []byte) string {
				en, err := RestoreEngine(q, Config{}, bytes.NewReader(ckpt))
				if err != nil {
					t.Fatal(err)
				}
				var out strings.Builder
				for _, m := range en.ProcessAll(rest) {
					fmt.Fprintln(&out, m)
				}
				m, a := en.Metrics(), en.StateSnapshot().Adaptive
				fmt.Fprintf(&out, "late=%d shed=%d k=%d nominal=%d maxk=%d degraded=%v\n",
					m.EventsLate, m.SheddedEvents, a.EffectiveK, a.NominalK, a.MaxKObserved, a.Degraded)
				return out.String()
			}
			ckpt := adaptiveFixture(t, name+".ckpt")
			want := string(adaptiveFixture(t, name+".rest"))
			if got := continuation(ckpt); got != want {
				t.Fatalf("continuation differs from the writer's\n got:\n%s\nwant:\n%s", got, want)
			}

			en, err := RestoreEngine(q, Config{}, bytes.NewReader(ckpt))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := en.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(again.String(), `"initialK"`) || (name == "maxk" && !strings.Contains(again.String(), `"limits":{"maxLag":700}`)) {
				t.Errorf("rewritten checkpoint keeps the legacy fields: %s", again.String())
			}
			if got := continuation(again.Bytes()); got != want {
				t.Fatalf("continuation after a second checkpoint differs\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
