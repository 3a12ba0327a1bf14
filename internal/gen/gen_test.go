package gen

import (
	"math"
	"testing"
	"testing/quick"

	"oostream/internal/event"
)

func TestShuffleDeterministic(t *testing.T) {
	events := Uniform(200, []string{"A", "B"}, 4, 10, 1)
	d := Disorder{Ratio: 0.2, MaxDelay: 100, Seed: 7}
	a := Shuffle(events, d)
	b := Shuffle(events, d)
	for i := range a {
		if a[i].Seq != b[i].Seq {
			t.Fatalf("shuffle not deterministic at %d", i)
		}
	}
}

func TestShuffleZeroRatioIsIdentity(t *testing.T) {
	events := Uniform(100, []string{"A"}, 4, 10, 1)
	out := Shuffle(events, Disorder{Ratio: 0, MaxDelay: 100, Seed: 1})
	for i := range out {
		if out[i].Seq != events[i].Seq {
			t.Fatal("zero ratio must not reorder")
		}
	}
	if OOORatio(out) != 0 {
		t.Error("OOORatio of sorted stream must be 0")
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	events := Uniform(300, []string{"A", "B", "C"}, 4, 10, 2)
	out := Shuffle(events, Disorder{Ratio: 0.5, MaxDelay: 200, Seed: 3})
	if len(out) != len(events) {
		t.Fatal("length changed")
	}
	seen := make(map[event.Seq]bool, len(out))
	for _, e := range out {
		if seen[e.Seq] {
			t.Fatal("duplicate event after shuffle")
		}
		seen[e.Seq] = true
	}
}

func TestShuffleRespectsBoundProperty(t *testing.T) {
	f := func(seed int64, ratioRaw uint8, delayRaw uint16) bool {
		events := Uniform(150, []string{"A", "B"}, 4, 8, seed)
		d := Disorder{
			Ratio:    float64(ratioRaw%101) / 100,
			MaxDelay: event.Time(delayRaw%500) + 1,
			Seed:     seed + 1,
		}
		out := Shuffle(events, d)
		return MaxDelay(out) <= d.MaxDelay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleProducesDisorder(t *testing.T) {
	events := Uniform(2000, []string{"A", "B"}, 4, 10, 1)
	out := Shuffle(events, Disorder{Ratio: 0.3, MaxDelay: 200, Seed: 2})
	got := OOORatio(out)
	if got < 0.05 {
		t.Errorf("OOORatio = %f, want substantial disorder", got)
	}
	// Higher ratio, more disorder (sanity, not exact).
	out2 := Shuffle(events, Disorder{Ratio: 0.9, MaxDelay: 200, Seed: 2})
	if OOORatio(out2) <= got {
		t.Errorf("ratio 0.9 gave %f, not more than %f", OOORatio(out2), got)
	}
}

func TestOOORatioAndMaxDelay(t *testing.T) {
	events := []event.Event{
		{TS: 10, Seq: 1}, {TS: 30, Seq: 2}, {TS: 20, Seq: 3}, {TS: 40, Seq: 4}, {TS: 5, Seq: 5},
	}
	if got := OOORatio(events); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("OOORatio = %f, want 0.4", got)
	}
	if got := MaxDelay(events); got != 35 {
		t.Errorf("MaxDelay = %d, want 35", got)
	}
	if OOORatio(nil) != 0 || MaxDelay(nil) != 0 {
		t.Error("empty stream should measure zero")
	}
}

func TestRFIDWorkload(t *testing.T) {
	cfg := DefaultRFID(100, 42)
	events := RFID(cfg)
	if !event.IsSortedByTime(events) {
		t.Fatal("RFID output not sorted")
	}
	schema := RFIDSchema()
	counts := map[string]int{}
	for i, e := range events {
		if e.Seq != event.Seq(i+1) {
			t.Fatal("seqs not dense")
		}
		if err := schema.Validate(e); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		counts[e.Type]++
	}
	if counts["SHELF"] != 100 || counts["EXIT"] != 100 {
		t.Errorf("counts = %v", counts)
	}
	if counts["COUNTER"] == 0 || counts["COUNTER"] == 100 {
		t.Errorf("PayRatio 0.8 should give some but not all counters: %d", counts["COUNTER"])
	}
	// Determinism.
	again := RFID(cfg)
	if len(again) != len(events) || again[10].TS != events[10].TS {
		t.Error("RFID not deterministic")
	}
}

func TestRFIDPerItemOrder(t *testing.T) {
	events := RFID(DefaultRFID(50, 7))
	shelf := map[int64]event.Time{}
	exit := map[int64]event.Time{}
	for _, e := range events {
		v, _ := e.Attr("id")
		id, _ := v.AsInt()
		switch e.Type {
		case "SHELF":
			shelf[id] = e.TS
		case "EXIT":
			exit[id] = e.TS
		}
	}
	for id, sTS := range shelf {
		if eTS, ok := exit[id]; !ok || eTS <= sTS {
			t.Fatalf("item %d: shelf@%d exit@%d", id, sTS, exit[id])
		}
	}
}

func TestIntrusionWorkload(t *testing.T) {
	events := Intrusion(DefaultIntrusion(40, 9))
	if !event.IsSortedByTime(events) {
		t.Fatal("intrusion output not sorted")
	}
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Type]++
		if _, ok := e.Attr("src"); !ok {
			t.Fatal("missing src")
		}
	}
	if counts["SCAN"] < 40 || counts["LOGIN"] < 40 || counts["EXFIL"] < 40 {
		t.Errorf("counts = %v", counts)
	}
}

func TestStockWorkload(t *testing.T) {
	events := Stock(DefaultStock(500, 11))
	if len(events) != 500 || !event.IsSortedByTime(events) {
		t.Fatal("stock output wrong")
	}
	for _, e := range events {
		price, _ := e.Attr("price")
		if p, ok := price.AsFloat(); !ok || p < 1 {
			t.Fatalf("bad price %v", price)
		}
	}
}

func TestUniformWorkload(t *testing.T) {
	events := Uniform(100, []string{"X", "Y", "Z"}, 5, 10, 3)
	if len(events) != 100 || !event.IsSortedByTime(events) {
		t.Fatal("uniform output wrong")
	}
	types := map[string]bool{}
	for _, e := range events {
		types[e.Type] = true
		v, _ := e.Attr("id")
		if id, ok := v.AsInt(); !ok || id < 0 || id >= 5 {
			t.Fatalf("bad id %v", v)
		}
	}
	if len(types) != 3 {
		t.Errorf("types = %v", types)
	}
}
