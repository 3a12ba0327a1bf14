// RFID shoplifting detection — the paper's motivating application. A
// synthetic shop-floor trace (SHELF pickup, optional COUNTER payment, EXIT
// gate) is disordered by network delays; the query flags items that left
// without payment:
//
//	PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
//	WHERE   s.id = e.id AND s.id = c.id
//	WITHIN  6s
//
// The example contrasts the paper's in-order engine with the four
// strategies on the same disordered stream: the in-order engine accuses
// innocent customers (premature negation output) and misses real thieves;
// the strategies, which all run the out-of-order kernel, agree with ground
// truth. The in-order engine is a reference kernel, not a strategy, so the
// example drives it directly.
package main

import (
	"fmt"
	"log"

	"oostream"
	"oostream/internal/gen"
	"oostream/internal/inorder"
	"oostream/internal/plan"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	query, err := oostream.Compile(`
		PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
		WHERE s.id = e.id AND s.id = c.id
		WITHIN 6s
		RETURN s.id AS item, e.gate AS gate`, gen.RFIDSchema())
	if err != nil {
		return err
	}

	const k = 2_000 // readers deliver at most 2s late
	sorted := gen.RFID(gen.DefaultRFID(500, 42))
	stream := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.15, MaxDelay: k, Seed: 7})
	fmt.Printf("stream: %d events, %.1f%% out of order, max delay %dms\n\n",
		len(stream), 100*gen.OOORatio(stream), gen.MaxDelay(stream))

	// Ground truth: the in-order engine over the properly sorted stream, the
	// one input it is exact on.
	ref, err := plan.ParseAndCompile(query.Source(), nil)
	if err != nil {
		return err
	}
	truth := runInOrder(ref, sorted)
	fmt.Printf("ground truth: %d unpaid items left the shop\n\n", len(truth))

	report := func(name string, got []oostream.Match, retractions uint64, meanLatency float64) {
		exact, _ := oostream.SameResults(truth, got)
		fmt.Printf("%-10s alerts=%-4d retractions=%-3d exact=%-5v mean-latency=%.0fms\n",
			name, uint64(len(got))-retractions, retractions, exact, meanLatency)
	}
	got := runInOrder(ref, stream)
	var lat oostream.Time
	for _, m := range got {
		lat += m.EmitClock - m.Last().TS
	}
	report("inorder", got, 0, float64(lat)/float64(max(len(got), 1)))
	for _, strat := range oostream.Strategies() {
		en, err := oostream.NewEngine(query, oostream.Config{Strategy: strat, K: k})
		if err != nil {
			return err
		}
		got := en.ProcessAll(stream)
		m := en.Metrics()
		report(string(strat), got, m.Retractions, m.LogicalLat.Mean())
	}

	fmt.Println("\nfirst three alerts from the native engine:")
	en, err := oostream.NewEngine(query, oostream.Config{K: k})
	if err != nil {
		return err
	}
	alerts := en.ProcessAll(stream)
	for i, m := range alerts {
		if i == 3 {
			break
		}
		item, _ := m.Fields[0].AsInt()
		gate, _ := m.Fields[1].AsString()
		fmt.Printf("  item %d left unpaid via gate %s (shelf@%d, exit@%d)\n",
			item, gate, m.First().TS, m.Last().TS)
	}
	return nil
}

// runInOrder runs the in-order reference kernel over events and flushes it.
func runInOrder(p *plan.Plan, events []oostream.Event) []oostream.Match {
	en := inorder.New(p)
	var out []oostream.Match
	for _, e := range events {
		out = append(out, en.Process(e)...)
	}
	return append(out, en.Flush()...)
}
