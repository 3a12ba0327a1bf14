package oostream

import (
	"fmt"
	"testing"

	"oostream/internal/gen"
)

// TestResultsOutliveTheirCall: the matches a call returns, and their events,
// are carved from blocks the engine goes on filling, so nothing the engine
// does later may write over them. Every strategy, over a pattern (whose
// matches are sealed at emission), a negation pattern (pending and
// vulnerable ones) and an aggregate, is driven through Process, ProcessBatch, Advance and
// Flush; every returned slice is kept and rendered at return, rendered again
// once the stream has ended, and the two must be byte-identical. Each
// returned slice and each match's Events has its capacity at its length, so
// a caller's append cannot reach a neighbour's slots.
func TestResultsOutliveTheirCall(t *testing.T) {
	const k = 2000
	events := gen.Shuffle(gen.RFID(gen.DefaultRFID(1500, 1)), gen.Disorder{Ratio: 0.3, MaxDelay: k, Seed: 3})
	queries := []struct{ name, src string }{
		{"pattern", "PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s"},
		{"negation", "PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WHERE s.id = e.id AND s.id = c.id WITHIN 6s"},
		{"aggregate", "AGGREGATE COUNT(*) OVER SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s SLIDE 100"},
	}
	render := func(ms []Match) string {
		var b []byte
		for _, m := range ms {
			b, _ = m.AppendText(b)
			b = fmt.Appendf(b, " %v %d %d %s\n", m.Events, m.EmitSeq, m.EmitClock, m.Query)
		}
		return string(b)
	}
	for _, qc := range queries {
		q := MustCompile(qc.src, gen.RFIDSchema())
		for _, s := range Strategies() {
			t.Run(fmt.Sprintf("%s/%s", qc.name, s), func(t *testing.T) {
				en := MustNewEngine(q, Config{Strategy: s, K: k})
				var kept [][]Match
				var at []string
				results := 0
				keep := func(call string, ms []Match) {
					if cap(ms) != len(ms) {
						t.Fatalf("%s returned %d matches with capacity %d", call, len(ms), cap(ms))
					}
					for _, m := range ms {
						if cap(m.Events) != len(m.Events) {
							t.Fatalf("%s returned a match of %d events with capacity %d", call, len(m.Events), cap(m.Events))
						}
					}
					kept = append(kept, ms)
					at = append(at, render(ms))
					results += len(ms)
				}
				var clock Time
				for i := 0; i < len(events); {
					switch i % 7 {
					case 3:
						// A batch of up to five.
						n := min(5, len(events)-i)
						batch := append([]Event(nil), events[i:i+n]...)
						keep("ProcessBatch", en.ProcessBatch(batch))
						for _, e := range batch {
							clock = max(clock, e.TS)
						}
						i += n
					case 5:
						keep("Advance", en.Advance(clock))
						fallthrough
					default:
						keep("Process", en.Process(events[i]))
						clock = max(clock, events[i].TS)
						i++
					}
				}
				keep("Flush", en.Flush())
				if err := en.Err(); err != nil {
					t.Fatal(err)
				}
				if results < 100 {
					t.Fatalf("%d results: the stream is meant to emit on many calls", results)
				}
				for i, ms := range kept {
					if got := render(ms); got != at[i] {
						t.Fatalf("call %d's results changed after it returned:\nat return:\n%s\nat the end:\n%s", i, at[i], got)
					}
				}
			})
		}
	}
}
