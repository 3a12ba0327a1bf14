package shard

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

func shopStream(t *testing.T, items int, seed int64) []event.Event {
	t.Helper()
	sorted := gen.RFID(gen.DefaultRFID(items, seed))
	return gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 2_000, Seed: seed + 1})
}

// TestShardCheckpointRestoreContinuesExactly: cutting a stream at a
// checkpoint/restore boundary of the sequential sharded engine yields the
// same matches as an uninterrupted run.
func TestShardCheckpointRestoreContinuesExactly(t *testing.T) {
	const k = event.Time(2_000)
	p := compile(t, shopQuery)
	events := shopStream(t, 150, 77)

	full, err := New(mustRouter(t, "id", 3), engine.Env{}, nativeFactory(p, k))
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Drain(full, events)

	for _, cut := range []int{0, 1, 75, len(events)} {
		first, err := New(mustRouter(t, "id", 3), engine.Env{}, nativeFactory(p, k))
		if err != nil {
			t.Fatal(err)
		}
		var got []plan.Match
		for _, e := range events[:cut] {
			got = append(got, first.Process(e)...)
		}
		var buf bytes.Buffer
		if err := first.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		second, err := Restore(mustRouter(t, "id", 3), engine.Env{},
			func(_ int, r io.Reader) (engine.Engine, error) { return core.Restore(p, engine.Env{}, r) },
			&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events[cut:] {
			got = append(got, second.Process(e)...)
		}
		got = append(got, second.Flush()...)
		if ok, diff := plan.SameResults(want, got); !ok {
			t.Fatalf("cut at %d:\n%s", cut, diff)
		}
	}
}

// TestShardRestoreTopologyMismatch: a checkpoint must not restore into a
// different partitioning.
func TestShardRestoreTopologyMismatch(t *testing.T) {
	const k = event.Time(2_000)
	p := compile(t, shopQuery)
	en, err := New(mustRouter(t, "id", 3), engine.Env{}, nativeFactory(p, k))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restoreCore := func(_ int, r io.Reader) (engine.Engine, error) { return core.Restore(p, engine.Env{}, r) }
	if _, err := Restore(mustRouter(t, "id", 4), engine.Env{}, restoreCore, bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "shards") {
		t.Errorf("shard-count mismatch: %v", err)
	}
	if _, err := Restore(mustRouter(t, "tag", 3), engine.Env{}, restoreCore, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("attribute mismatch accepted")
	}
}
