package oostream

import (
	"strings"
	"testing"

	"oostream/internal/gen"
)

func TestPartitionedEngineEquivalence(t *testing.T) {
	q := MustCompile(`
		PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e)
		WHERE s.id = e.id AND s.id = c.id
		WITHIN 6s`, gen.RFIDSchema())
	sorted := gen.RFID(gen.DefaultRFID(300, 71))
	shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.2, MaxDelay: 2000, Seed: 72})

	single := MustNewEngine(q, Config{K: 2000}).ProcessAll(shuffled)

	for _, strat := range []Strategy{StrategyNative, StrategySpeculate, StrategyKSlack} {
		part, err := NewEngine(q, Config{Strategy: strat, K: 2000,
			Partition: Partition{Attr: "id", Shards: 4}})
		if err != nil {
			t.Fatal(err)
		}
		got := part.ProcessAll(shuffled)
		if ok, diff := SameResults(single, got); !ok {
			t.Errorf("partitioned %s differs:\n%s", strat, diff)
		}
		if !strings.HasPrefix(part.Strategy(), "shard(") {
			t.Errorf("Strategy() = %q", part.Strategy())
		}
	}
}

func TestPartitionedEngineRejectsUnpartitionable(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WITHIN 10", nil)
	if _, err := NewEngine(q, Config{K: 5, Partition: Partition{Attr: "id", Shards: 2}}); err == nil ||
		!strings.Contains(err.Error(), "not partitionable") {
		t.Fatalf("err = %v", err)
	}
	q2 := MustCompile("PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 10", nil)
	if _, err := NewEngine(q2, Config{K: 5, Partition: Partition{Attr: "id", Shards: -1}}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := NewEngine(q2, Config{K: -1, Partition: Partition{Attr: "id", Shards: 2}}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestPartitionedEngineMetrics(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100", nil)
	en, err := NewEngine(q, Config{K: 50, Partition: Partition{Attr: "id", Shards: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		en.Process(Event{Type: "A", TS: Time(i * 2), Seq: Seq(2*i + 1),
			Attrs: Attrs{"id": Int(int64(i % 5))}.List()})
		en.Process(Event{Type: "B", TS: Time(i*2 + 1), Seq: Seq(2*i + 2),
			Attrs: Attrs{"id": Int(int64(i % 5))}.List()})
	}
	en.Flush()
	m := en.Metrics()
	if m.EventsIn != 100 || m.Matches == 0 {
		t.Errorf("aggregated metrics: %+v", m)
	}
}

func TestFacadeCheckpointRestore(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	en := MustNewEngine(q, Config{K: 50})
	en.Process(Event{Type: "A", TS: 10, Seq: 1})
	var buf strings.Builder
	if err := en.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(q, Config{K: 50}, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	out := restored.Process(Event{Type: "B", TS: 20, Seq: 2})
	if len(out) != 1 || out[0].Key() != "1|2" {
		t.Fatalf("restored engine: %v", out)
	}
	// Non-native strategies refuse.
	ks := MustNewEngine(q, Config{Strategy: StrategyKSlack, K: 50})
	if err := ks.Checkpoint(&strings.Builder{}); err == nil {
		t.Fatal("kslack checkpoint should fail")
	}
}
