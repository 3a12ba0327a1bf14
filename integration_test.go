package oostream_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"oostream"
	"oostream/internal/gen"
	"oostream/internal/inorder"
	"oostream/internal/oracle"
	"oostream/internal/plan"
	"oostream/internal/trace"
)

// integrationCase pairs a workload with the queries the examples and
// benchmarks run over it.
type integrationCase struct {
	name    string
	queries []string
	sorted  []oostream.Event
	k       oostream.Time
}

func integrationCases() []integrationCase {
	return []integrationCase{
		{
			name: "rfid",
			queries: []string{
				"PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s",
				"PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WHERE s.id = e.id AND s.id = c.id WITHIN 6s",
			},
			sorted: gen.RFID(gen.DefaultRFID(150, 101)),
			k:      2_000,
		},
		{
			name: "intrusion",
			queries: []string{
				"PATTERN SEQ(SCAN a, LOGIN l, EXFIL x) WHERE a.src = l.src AND l.src = x.src WITHIN 5s",
				"PATTERN SEQ(SCAN a, !(LOGIN l), EXFIL x) WHERE a.src = x.src AND a.src = l.src WITHIN 3s",
			},
			sorted: gen.Intrusion(gen.DefaultIntrusion(60, 102)),
			k:      1_500,
		},
		{
			name: "stock",
			queries: []string{
				"PATTERN SEQ(TRADE a, TRADE b, TRADE c) WHERE a.sym = b.sym AND b.sym = c.sym AND b.price < a.price AND c.price > b.price WITHIN 150",
			},
			sorted: gen.Stock(gen.DefaultStock(600, 103)),
			k:      300,
		},
	}
}

// TestWorkloadStrategyMatrix is the end-to-end equivalence matrix: for
// every workload and query, every exact strategy on the disordered stream
// reproduces the in-order reference kernel's results on the sorted stream,
// which in turn match the brute-force oracle.
func TestWorkloadStrategyMatrix(t *testing.T) {
	for _, tc := range integrationCases() {
		shuffled := gen.Shuffle(tc.sorted, gen.Disorder{Ratio: 0.25, MaxDelay: tc.k, Seed: 7})
		for qi, src := range tc.queries {
			t.Run(fmt.Sprintf("%s/q%d", tc.name, qi), func(t *testing.T) {
				q := oostream.MustCompile(src, nil)
				p, err := plan.ParseAndCompile(src, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref := inorder.New(p)
				var truth []oostream.Match
				for _, e := range tc.sorted {
					truth = append(truth, ref.Process(e)...)
				}
				truth = append(truth, ref.Flush()...)

				// Cross-check the in-order reference kernel against the oracle.
				oracleMatches := oracle.Matches(p, tc.sorted)
				if ok, diff := oostream.SameResults(truth, oracleMatches); !ok {
					t.Fatalf("in-order engine vs oracle:\n%s", diff)
				}

				for _, strat := range []oostream.Strategy{
					oostream.StrategyKSlack, oostream.StrategyNative, oostream.StrategySpeculate,
				} {
					got := oostream.MustNewEngine(q, oostream.Config{Strategy: strat, K: tc.k}).
						ProcessAll(shuffled)
					if ok, diff := oostream.SameResults(truth, got); !ok {
						t.Errorf("%s under disorder (%d truth matches):\n%s", strat, len(truth), diff)
					}
				}
			})
		}
	}
}

// TestTraceRoundTripThroughEngine writes a disordered workload to the
// JSONL format and replays it: the engine must produce identical results
// from the replayed bytes.
func TestTraceRoundTripThroughEngine(t *testing.T) {
	tc := integrationCases()[0]
	shuffled := gen.Shuffle(tc.sorted, gen.Disorder{Ratio: 0.25, MaxDelay: tc.k, Seed: 9})
	q := oostream.MustCompile(tc.queries[1], nil)
	want := oostream.MustNewEngine(q, oostream.Config{K: tc.k}).ProcessAll(shuffled)

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.WriteAll(shuffled); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	replayed, err := trace.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got := oostream.MustNewEngine(q, oostream.Config{K: tc.k}).ProcessAll(replayed)
	if ok, diff := oostream.SameResults(want, got); !ok {
		t.Fatalf("replay differs:\n%s", diff)
	}
}

// TestRunAllStrategies drives every strategy over one disordered stream
// through the channel pipeline (Engine.Run) and checks each against its
// own ProcessAll run.
func TestRunAllStrategies(t *testing.T) {
	tc := integrationCases()[0]
	shuffled := gen.Shuffle(tc.sorted, gen.Disorder{Ratio: 0.25, MaxDelay: tc.k, Seed: 11})
	q := oostream.MustCompile(tc.queries[1], nil)

	for _, strat := range oostream.Strategies() {
		cfg := oostream.Config{Strategy: strat, K: tc.k}
		want := oostream.MustNewEngine(q, cfg).ProcessAll(shuffled)

		en := oostream.MustNewEngine(q, cfg)
		in := make(chan oostream.Event)
		out := make(chan oostream.Match, 1)
		go func() {
			defer close(in)
			for _, e := range shuffled {
				in <- e
			}
		}()
		errCh := make(chan error, 1)
		go func() { errCh <- en.Run(context.Background(), in, out) }()
		var got []oostream.Match
		for m := range out {
			got = append(got, m)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if ok, diff := oostream.SameResults(want, got); !ok {
			t.Errorf("%s via Run differs:\n%s", strat, diff)
		}
	}
}

// TestLateDropAccounting checks that when the true disorder exceeds the
// configured K, the native engine reports the violations rather than
// silently mis-answering.
func TestLateDropAccounting(t *testing.T) {
	tc := integrationCases()[0]
	// Disorder up to 2000ms but K configured at 200ms.
	shuffled := gen.Shuffle(tc.sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 2_000, Seed: 13})
	q := oostream.MustCompile(tc.queries[0], nil)
	en := oostream.MustNewEngine(q, oostream.Config{K: 200})
	en.ProcessAll(shuffled)
	if en.Metrics().EventsLate == 0 {
		t.Fatal("under-configured K must surface late events")
	}
}
