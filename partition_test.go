package oostream

import (
	"strings"
	"sync"
	"testing"

	"oostream/internal/gen"
)

// TestPartitionedEngineRejectsUnpartitionable: what the planner reports about
// a query's key. One whose components are not all linked by equality on an
// attribute is partitionable by nothing and runs in one key group; a linked
// one names its attribute and runs keyed, with no configuration.
func TestPartitionedEngineRejectsUnpartitionable(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WITHIN 10", nil)
	if q.PartitionableBy("id") || q.AutoPartitionKey() != "" {
		t.Fatalf("unlinked query reports PartitionableBy(id)=%t, AutoPartitionKey=%q", q.PartitionableBy("id"), q.AutoPartitionKey())
	}
	if snap := MustNewEngine(q, Config{K: 5}).StateSnapshot(); snap.KeyAttr != "" {
		t.Fatalf("unlinked query runs keyed by %q", snap.KeyAttr)
	}
	q2 := MustCompile("PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 10", nil)
	if !q2.PartitionableBy("id") || q2.AutoPartitionKey() != "id" {
		t.Fatalf("linked query reports PartitionableBy(id)=%t, AutoPartitionKey=%q", q2.PartitionableBy("id"), q2.AutoPartitionKey())
	}
	if snap := MustNewEngine(q2, Config{K: 5}).StateSnapshot(); snap.KeyAttr != "id" {
		t.Fatalf("linked query runs keyed by %q, want id", snap.KeyAttr)
	}
	if _, err := NewEngine(q2, Config{K: -1}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestPartitionedEngineMetrics(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 100", nil)
	en := MustNewEngine(q, Config{K: 50})
	for i := 0; i < 50; i++ {
		en.Process(Event{Type: "A", TS: Time(i * 2), Seq: Seq(2*i + 1),
			Attrs: Attrs{"id": Int(int64(i % 5))}.List()})
		en.Process(Event{Type: "B", TS: Time(i*2 + 1), Seq: Seq(2*i + 2),
			Attrs: Attrs{"id": Int(int64(i % 5))}.List()})
	}
	m := en.Metrics()
	if m.EventsIn != 100 || m.Matches == 0 || m.PeakKeyGroups != 5 {
		t.Errorf("keyed engine's metrics: %+v", m)
	}
	en.Flush()
}

// TestKeyedMetricsDuringProcess reads the engine's metrics from a second
// goroutine while it ingests a stream in which every tenth event lacks the
// key attribute, which is what a /metrics scrape of a running esprun does.
// The count of refused events lives in the kernel's series, an atomic (the
// router that used to keep it in a plain field is gone), so this must be
// clean under -race and the final count exact.
func TestKeyedMetricsDuringProcess(t *testing.T) {
	q := MustCompile("PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s", gen.RFIDSchema())
	en := MustNewEngine(q, Config{K: 2000})
	events := gen.Shuffle(gen.RFID(gen.DefaultRFID(800, 7)), gen.Disorder{Ratio: 0.3, MaxDelay: 2000, Seed: 7})
	var keyless uint64
	for i := range events {
		if i%10 == 9 {
			events[i].Attrs = nil
			if events[i].Type == "SHELF" || events[i].Type == "EXIT" {
				keyless++
			}
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = en.Metrics()
			}
		}
	}()
	var got []Match
	for start := 0; start < len(events); start += 64 {
		got = append(got, en.ProcessBatch(events[start:min(start+64, len(events))])...)
	}
	got = append(got, en.Flush()...)
	close(done)
	wg.Wait()
	if len(got) == 0 {
		t.Fatal("expected matches from the stream")
	}
	snap := en.Metrics()
	if snap.PredErrors != keyless || keyless == 0 {
		t.Fatalf("PredErrors = %d, want the %d pattern events without id", snap.PredErrors, keyless)
	}
	if snap.EventsIn+snap.Irrelevant != uint64(len(events)) {
		t.Fatalf("EventsIn+Irrelevant = %d+%d, want %d", snap.EventsIn, snap.Irrelevant, len(events))
	}
}

func TestFacadeCheckpointRestore(t *testing.T) {
	q := MustCompile("PATTERN SEQ(A a, B b) WITHIN 100", nil)
	// The levee's checkpoint holds A in its buffer; the kernel's in a stack.
	for _, cfg := range []Config{{K: 50}, {Strategy: StrategyKSlack, K: 50}, {Strategy: StrategySpeculate, K: 50}, {Strategy: StrategyHybrid, K: 50}} {
		en := MustNewEngine(q, cfg)
		en.Process(Event{Type: "A", TS: 10, Seq: 1})
		var buf strings.Builder
		if err := en.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreEngine(q, cfg, strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		out := append(restored.Process(Event{Type: "B", TS: 20, Seq: 2}), restored.Flush()...)
		if len(out) != 1 || out[0].Key() != "1|2" {
			t.Fatalf("%s: restored engine: %v", cfg.Strategy, out)
		}
	}
}
