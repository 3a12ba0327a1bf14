package oostream_test

import (
	"fmt"

	"oostream"
)

// ExampleCompile shows the query language and the compile-time checks a
// schema enables.
func ExampleCompile() {
	schema := oostream.NewSchema()
	schema.Declare("LOW", map[string]oostream.Kind{"sensor": oostream.KindInt})
	schema.Declare("HIGH", map[string]oostream.Kind{"sensor": oostream.KindInt})

	q, err := oostream.Compile(`
		PATTERN SEQ(LOW l, HIGH h)
		WHERE   l.sensor = h.sensor
		WITHIN  10s`, schema)
	if err != nil {
		fmt.Println("compile error:", err)
		return
	}
	fmt.Println(q.Source())
	fmt.Println("window:", q.Window(), "ms; partitionable by sensor:", q.PartitionableBy("sensor"))
	// Output:
	// PATTERN SEQ(LOW l, HIGH h) WHERE (l.sensor = h.sensor) WITHIN 10000ms
	// window: 10000 ms; partitionable by sensor: true
}

// ExampleEngine_Process demonstrates native out-of-order handling: the
// match is emitted the moment its late first element arrives.
func ExampleEngine_Process() {
	q := oostream.MustCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	en := oostream.MustNewEngine(q, oostream.Config{
		Strategy: oostream.StrategyNative,
		K:        50,
	})
	// B arrives first even though A precedes it in event time.
	fmt.Println("after B:", len(en.Process(oostream.Event{Type: "B", TS: 20, Seq: 2})))
	matches := en.Process(oostream.Event{Type: "A", TS: 10, Seq: 1})
	fmt.Println("after late A:", len(matches))
	fmt.Println("match key:", matches[0].Key())
	// Output:
	// after B: 0
	// after late A: 1
	// match key: 1|2
}

// ExampleEngine_Advance shows heartbeats sealing negation output through
// stream silence.
func ExampleEngine_Advance() {
	q := oostream.MustCompile("PATTERN SEQ(A a, !(N n), B b) WITHIN 100", nil)
	en := oostream.MustNewEngine(q, oostream.Config{K: 50})
	en.Process(oostream.Event{Type: "A", TS: 10, Seq: 1})
	pending := en.Process(oostream.Event{Type: "B", TS: 30, Seq: 2})
	fmt.Println("on completion:", len(pending))
	sealed := en.Advance(80) // safe clock 30 reaches the gap's end
	fmt.Println("after heartbeat:", len(sealed))
	// Output:
	// on completion: 0
	// after heartbeat: 1
}

// ExampleEngine_ProcessAll builds a latency alert: the average response
// time per tumbling window, emitted only when it crosses the threshold in
// the HAVING clause. An aggregate query's matches carry the window value in
// Match.Agg.
func ExampleEngine_ProcessAll() {
	q := oostream.MustCompile(`
		AGGREGATE AVG(r.ms) OVER SEQ(REQ q, RESP r)
		WHERE  q.id = r.id
		WITHIN 100
		HAVING w.value > 50`, nil)
	en := oostream.MustNewEngine(q, oostream.Config{K: 20})
	stream := []oostream.Event{
		{Type: "REQ", TS: 10, Seq: 1, Attrs: oostream.Attrs{"id": oostream.Int(1)}.List()},
		{Type: "RESP", TS: 20, Seq: 2, Attrs: oostream.Attrs{"id": oostream.Int(1), "ms": oostream.Int(80)}.List()},
		{Type: "REQ", TS: 30, Seq: 3, Attrs: oostream.Attrs{"id": oostream.Int(2)}.List()},
		{Type: "RESP", TS: 40, Seq: 4, Attrs: oostream.Attrs{"id": oostream.Int(2), "ms": oostream.Int(40)}.List()},
		// Second window: both responses fast, so HAVING suppresses it.
		{Type: "REQ", TS: 110, Seq: 5, Attrs: oostream.Attrs{"id": oostream.Int(3)}.List()},
		{Type: "RESP", TS: 120, Seq: 6, Attrs: oostream.Attrs{"id": oostream.Int(3), "ms": oostream.Int(10)}.List()},
	}
	for _, m := range en.ProcessAll(stream) {
		if a := m.Agg; a != nil {
			fmt.Printf("alert: avg %s ms over %d responses in (%d,%d]\n",
				a.Value, a.Count, a.WindowStart, a.WindowEnd)
		}
	}
	// Output:
	// alert: avg 60 ms over 2 responses in (0,100]
}

// ExampleConfig shows the disorder bound on one disordered stream: an event
// arriving more than K behind the latest timestamp is dropped as late.
func ExampleConfig() {
	q := oostream.MustCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	stream := []oostream.Event{
		{Type: "B", TS: 20, Seq: 2},
		{Type: "A", TS: 10, Seq: 1}, // 10 behind B@20
		{Type: "A", TS: 200, Seq: 3},
		{Type: "B", TS: 210, Seq: 4},
	}
	for _, k := range []oostream.Time{5, 50} {
		en := oostream.MustNewEngine(q, oostream.Config{K: k})
		fmt.Printf("K=%d: %d matches\n", k, len(en.ProcessAll(stream)))
	}
	// Output:
	// K=5: 1 matches
	// K=50: 2 matches
}
