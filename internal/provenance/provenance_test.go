package provenance

import (
	"encoding/json"
	"strings"
	"testing"

	"oostream/internal/event"
)

func ref(typ string, ts event.Time, seq event.Seq) EventRef {
	return EventRef{Pos: 0, Type: typ, TS: ts, Seq: seq}
}

func TestRecordMatchKey(t *testing.T) {
	r := &Record{Events: []EventRef{ref("A", 1, 7), ref("B", 2, 9), ref("C", 3, 12)}}
	if got, want := r.MatchKey(), "7|9|12"; got != want {
		t.Fatalf("MatchKey = %q, want %q", got, want)
	}
	empty := &Record{}
	if got := empty.MatchKey(); got != "" {
		t.Fatalf("empty MatchKey = %q, want empty", got)
	}
}

func TestRefs(t *testing.T) {
	events := []event.Event{
		{Type: "A", TS: 10, Seq: 1},
		{Type: "B", TS: 20, Seq: 2},
	}
	refs := Refs(events)
	if len(refs) != 2 {
		t.Fatalf("Refs len = %d, want 2", len(refs))
	}
	for i, r := range refs {
		if r.Pos != i || r.Type != events[i].Type || r.TS != events[i].TS || r.Seq != events[i].Seq {
			t.Fatalf("ref %d = %+v, want event %+v at pos %d", i, r, events[i], i)
		}
	}
}

func TestRecordString(t *testing.T) {
	neg := ref("N", 15, 5)
	r := &Record{
		Kind:     KindInsert,
		Events:   []EventRef{ref("A", 10, 1), ref("B", 20, 2)},
		Key:      "3",
		KeyAttr:  "id",
		WindowLo: 10, WindowHi: 60,
		TriggerSeq: 2, TriggerPos: 1, Traversed: 4,
	}
	s := r.String()
	for _, want := range []string{"insert match 1|2", "A@10#1", "B@20#2", "window=[10,60]", "key=id=3", "trigger=#2@pos1", "traversed=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}

	rt := &Record{
		Kind:          KindRetract,
		Events:        []EventRef{ref("A", 10, 1)},
		InvalidatedBy: &neg,
	}
	s = rt.String()
	for _, want := range []string{"retract match 1", "invalidatedBy=N@15#5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("retract String() = %q, missing %q", s, want)
		}
	}

	tr := &Record{Kind: KindInsert, Events: []EventRef{ref("A", 10, 1)}, Truncated: true}
	if s := tr.String(); !strings.Contains(s, "provenance=truncated") || strings.Contains(s, "trigger=") {
		t.Fatalf("truncated String() = %q, want truncated marker and no trigger", s)
	}
}

func TestSizeBytesMonotone(t *testing.T) {
	small := &Record{Events: []EventRef{ref("A", 1, 1)}}
	big := &Record{Events: []EventRef{ref("A", 1, 1), ref("B", 2, 2)}, Key: "somekey", KeyAttr: "id"}
	if small.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("bigger record should estimate more bytes: %d vs %d", big.SizeBytes(), small.SizeBytes())
	}
	inv := ref("N", 3, 3)
	withInv := &Record{Events: small.Events, InvalidatedBy: &inv}
	if withInv.SizeBytes() <= small.SizeBytes() {
		t.Fatal("InvalidatedBy should add to the estimate")
	}
}

func TestTopK(t *testing.T) {
	groups := []KeyGroupStat{
		{Key: "b", Size: 5}, {Key: "a", Size: 5}, {Key: "c", Size: 9}, {Key: "d", Size: 1},
	}
	top := TopK(groups, 3)
	if len(top) != 3 {
		t.Fatalf("TopK len = %d, want 3", len(top))
	}
	if top[0].Key != "c" || top[1].Key != "a" || top[2].Key != "b" {
		t.Fatalf("TopK order = %v, want c,a,b (size desc, key asc ties)", top)
	}
	if got := TopK([]KeyGroupStat{{Key: "x", Size: 1}}, 3); len(got) != 1 {
		t.Fatalf("TopK under k should keep all, got %v", got)
	}
}

func TestAggregate(t *testing.T) {
	subs := []*StateSnapshot{
		{
			Engine: "native", Started: true, Clock: 100, Safe: 80, PurgeFrontier: 20,
			StackDepths: []int{3, 1}, KeyGroups: 2, NegStoreSizes: []int{4},
			Pending: 1, Lineage: LineageStats{Enabled: true, Live: 1, Bytes: 200},
			TopKeyGroups: []KeyGroupStat{{Key: "1", Size: 3}},
		},
		nil, // a shard that produced no snapshot must be skipped
		{
			Engine: "native", Started: true, Clock: 120, Safe: 70, PurgeFrontier: 10,
			StackDepths: []int{2, 2}, KeyGroups: 1, NegStoreSizes: []int{1},
			Pending: 2, Vulnerable: 3, BufferLen: 5,
			Lineage:      LineageStats{Enabled: true, Live: 2, Bytes: 300, Truncated: true},
			TopKeyGroups: []KeyGroupStat{{Key: "2", Size: 7}},
		},
	}
	agg := Aggregate("shard(native)", subs)
	if agg.Engine != "shard(native)" || !agg.Started {
		t.Fatalf("agg header wrong: %+v", agg)
	}
	if agg.Clock != 120 || agg.Safe != 70 || agg.PurgeFrontier != 10 {
		t.Fatalf("clock/safe/frontier = %d/%d/%d, want 120/70/10", agg.Clock, agg.Safe, agg.PurgeFrontier)
	}
	if agg.StackDepths[0] != 5 || agg.StackDepths[1] != 3 {
		t.Fatalf("StackDepths = %v, want [5 3]", agg.StackDepths)
	}
	if agg.KeyGroups != 3 || agg.NegStoreSizes[0] != 5 || agg.Pending != 3 || agg.Vulnerable != 3 || agg.BufferLen != 5 {
		t.Fatalf("sums wrong: %+v", agg)
	}
	if !agg.Lineage.Enabled || agg.Lineage.Live != 3 || agg.Lineage.Bytes != 500 || !agg.Lineage.Truncated {
		t.Fatalf("lineage agg wrong: %+v", agg.Lineage)
	}
	if len(agg.TopKeyGroups) != 2 || agg.TopKeyGroups[0].Key != "2" {
		t.Fatalf("TopKeyGroups = %v, want key 2 first", agg.TopKeyGroups)
	}
	if len(agg.Shards) != 3 {
		t.Fatalf("Shards must keep all parts incl. nil, got %d", len(agg.Shards))
	}
}

func TestAggregateAllUnstarted(t *testing.T) {
	agg := Aggregate("shard(native)", []*StateSnapshot{{Engine: "native"}, {Engine: "native"}})
	if agg.Started || agg.Clock != 0 || agg.Safe != 0 {
		t.Fatalf("unstarted aggregate should stay zero: %+v", agg)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := &StateSnapshot{
		Engine: "native", Started: true, Clock: 50, Safe: 30, PurgeFrontier: -10,
		StackDepths:   []int{1, 2},
		KeyGroups:     4,
		TopKeyGroups:  []KeyGroupStat{{Key: "7", Size: 3}},
		NegStoreSizes: []int{0},
		Lineage:       LineageStats{Enabled: true, Live: 2, Bytes: 400},
		Inner:         &StateSnapshot{Engine: "inorder", StackDepths: []int{1, 2}, NegStoreSizes: []int{0}},
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"stackDepths":[1,2]`, `"keyGroups":4`, `"topKeyGroups"`, `"lineage"`, `"inner"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("JSON %s missing %q", raw, want)
		}
	}
	var back StateSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Engine != "native" || back.Inner == nil || back.Inner.Engine != "inorder" || back.Lineage.Live != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
