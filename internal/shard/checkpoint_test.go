package shard

import (
	"bytes"
	"context"
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

// panicEngine wraps an engine and panics when it sees the poison Seq.
type panicEngine struct {
	engine.Engine
	poison uint64
}

func (pe *panicEngine) Process(e event.Event) []plan.Match {
	if e.Seq == pe.poison {
		panic("injected shard fault")
	}
	return pe.Engine.Process(e)
}

// ProcessBatch routes the batch through the poisoned Process (the embedded
// engine's own batch path would bypass it).
func (pe *panicEngine) ProcessBatch(batch []event.Event) []plan.Match {
	var out []plan.Match
	for _, e := range batch {
		out = append(out, pe.Process(e)...)
	}
	return out
}

// TestParallelShardPanicIsolated: a panic inside one shard's engine must
// surface as an error from Run — not crash the process — and must not
// wedge the feeder on the dead shard's channel.
func TestParallelShardPanicIsolated(t *testing.T) {
	const k = event.Time(2_000)
	p := compile(t, shopQuery)
	events := shopStream(t, 200, 88)
	poison := events[120].Seq

	par, err := NewParallel(mustRouter(t, "id", 3), engine.Env{}, func(int) (engine.Engine, error) {
		en, err := core.New(p, core.Options{K: k})
		if err != nil {
			return nil, err
		}
		return &panicEngine{Engine: en, poison: poison}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = par.Drain(context.Background(), events)
	if err == nil || !strings.Contains(err.Error(), "engine panic") {
		t.Fatalf("shard panic not isolated into an error: %v", err)
	}
}

// TestParallelFlushPanicIsolated: a panic during the end-of-stream Flush
// is isolated the same way.
func TestParallelFlushPanicIsolated(t *testing.T) {
	const k = event.Time(2_000)
	p := compile(t, shopQuery)
	events := shopStream(t, 50, 99)

	par, err := NewParallel(mustRouter(t, "id", 3), engine.Env{}, func(shard int) (engine.Engine, error) {
		en, err := core.New(p, core.Options{K: k})
		if err != nil {
			return nil, err
		}
		if shard == 1 {
			return &flushPanicEngine{Engine: en}, nil
		}
		return en, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = par.Drain(context.Background(), events)
	if err == nil || !strings.Contains(err.Error(), "engine panic") {
		t.Fatalf("flush panic not isolated: %v", err)
	}
}

type flushPanicEngine struct{ engine.Engine }

func (fe *flushPanicEngine) Flush() []plan.Match { panic("flush fault") }
