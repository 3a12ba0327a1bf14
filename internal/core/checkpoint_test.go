package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

// TestCheckpointRestoreContinuesExactly is the recovery contract: splitting
// a stream at any point into run-checkpoint-restore-run produces exactly
// the output of an uninterrupted run.
func TestCheckpointRestoreContinuesExactly(t *testing.T) {
	queries := []string{
		"PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 50",
		"PATTERN SEQ(A a, !(N n), B b) WITHIN 60",
		"PATTERN SEQ(A a, B b, !(N n)) WITHIN 40",
	}
	for _, src := range queries {
		p := compile(t, src)
		sorted := gen.Uniform(400, []string{"A", "B", "N"}, 3, 5, 41)
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 40, Seed: 42})

		want := drain(t, p, Options{K: 40}, shuffled)

		for _, cut := range []int{0, 1, 137, 399, 400} {
			first := MustNew(p, Options{K: 40})
			var got []plan.Match
			for _, e := range shuffled[:cut] {
				got = append(got, first.Process(e)...)
			}
			var buf bytes.Buffer
			if err := first.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			second, err := Restore(p, engine.Env{}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range shuffled[cut:] {
				got = append(got, second.Process(e)...)
			}
			got = append(got, second.Flush()...)
			if ok, diff := plan.SameResults(want, got); !ok {
				t.Fatalf("%s cut at %d:\n%s", src, cut, diff)
			}
		}
	}
}

func TestCheckpointPreservesPendingNegation(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 100")
	en := MustNew(p, Options{K: 50})
	en.Process(event.Event{Type: "A", TS: 10, Seq: 1})
	if out := en.Process(event.Event{Type: "B", TS: 30, Seq: 2}); len(out) != 0 {
		t.Fatal("should pend")
	}
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(p, engine.Env{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.pending.Len() != 1 {
		t.Fatalf("pending lost: %d", restored.pending.Len())
	}
	// A late negative after restore still suppresses it.
	restored.Process(event.Event{Type: "N", TS: 20, Seq: 3})
	if out := restored.Flush(); len(out) != 0 {
		t.Fatalf("restored engine emitted suppressed match: %v", out)
	}
}

func TestRestoreErrors(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	en := MustNew(p, Options{K: 10})
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	other := compile(t, "PATTERN SEQ(A a, C c) WITHIN 50")
	if _, err := Restore(other, engine.Env{}, bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "is for query") {
		t.Errorf("plan mismatch: %v", err)
	}
	if _, err := Restore(p, engine.Env{}, strings.NewReader("{garbage")); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	if _, err := Restore(p, engine.Env{}, strings.NewReader(`{"version":99}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}
	if _, err := Restore(p, engine.Env{}, strings.NewReader(`{"version":1,"planSource":"`+p.Source+`","stacks":[[]]}`)); err == nil ||
		!strings.Contains(err.Error(), "shape") {
		t.Errorf("shape mismatch: %v", err)
	}
}

// TestCheckpointEnvelopeRejectsDamage: a truncated or bit-flipped
// checkpoint must be rejected with a descriptive error instead of
// restoring garbage state. Every truncation point and every flipped byte
// must fail — the envelope validates length and CRC32 before any state is
// deserialized.
func TestCheckpointEnvelopeRejectsDamage(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id WITHIN 60")
	en := MustNew(p, Options{K: 20})
	sorted := gen.Uniform(60, []string{"A", "B", "N"}, 3, 4, 7)
	for _, e := range gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 20, Seed: 8}) {
		en.Process(e)
	}
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Sanity: the intact envelope restores.
	if _, err := Restore(p, engine.Env{}, bytes.NewReader(full)); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}

	for _, cut := range []int{0, 1, 5, 14, 15, len(full) / 2, len(full) - 1} {
		if _, err := Restore(p, engine.Env{}, bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d accepted", cut, len(full))
		}
	}
	for _, pos := range []int{0, 6, 8, 12, 15, 40, len(full) - 1} {
		flipped := append([]byte(nil), full...)
		flipped[pos] ^= 0x20
		if _, err := Restore(p, engine.Env{}, bytes.NewReader(flipped)); err == nil {
			t.Errorf("bit flip at %d accepted", pos)
		}
	}
	if _, err := Restore(p, engine.Env{}, bytes.NewReader(nil)); err == nil {
		t.Error("empty checkpoint accepted")
	}

	// A header declaring 2 GiB in front of a few bytes is a truncation like
	// any other: the declared length must not be allocated ahead of the data.
	huge := append([]byte(nil), full[:32]...)
	binary.LittleEndian.PutUint32(huge[7:11], 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Restore(p, engine.Env{}, bytes.NewReader(huge))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("2 GiB declared, 17 bytes present: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("restore allocated %d bytes for a 32-byte checkpoint declaring 2 GiB", got)
	}
}

// TestRestoreRejectsShortPending: a pending binding must hold one event per
// pattern position. A shorter one (or none) used to restore and panic later,
// in Process, when the binding sealed and finalize read its negation gap off
// a position it does not have.
func TestRestoreRejectsShortPending(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(C c), B b) WITHIN 50")
	for _, events := range []string{`[{"type":"A","ts":90,"seq":1}]`, `[]`} {
		ck := `{"version":1,"planSource":"` + p.Source + `","k":10,"latePolicy":1,"purgeEvery":64,` +
			`"clock":100,"started":true,"arrival":1,"enumerated":1,"since":1,"stacks":[[],[]],"negStores":[[]],` +
			`"pending":[{"events":` + events + `,"sealTS":95,"madeSeq":1}]}`
		if _, err := Restore(p, engine.Env{}, strings.NewReader(ck)); err == nil ||
			!strings.Contains(err.Error(), "pending binding 0 holds") {
			t.Errorf("pending events %s: %v, want a pending-binding shape error", events, err)
		}
	}
}

// TestCheckpointLegacyV1Restores: bare-JSON checkpoints written before the
// envelope existed still restore (the decoder sniffs the first byte).
func TestCheckpointLegacyV1Restores(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	legacy := `{"version":1,"planSource":"` + p.Source + `","k":10,"latePolicy":1,` +
		`"purgeEvery":64,"clock":100,"started":true,"arrival":3,"enumerated":0,"since":0,` +
		`"stacks":[[{"type":"A","ts":100,"seq":1}],[]],"negStores":[],"pending":null}`
	en, err := Restore(p, engine.Env{}, strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	if en.clock != 100 || en.StateSize() != 1 {
		t.Errorf("legacy state not restored: clock=%d size=%d", en.clock, en.StateSize())
	}
}

func TestCheckpointRestoresOptionsAndClock(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	en := MustNew(p, Options{K: 33, LatePolicy: BestEffort, DisableTriggerOpt: true, PurgeEvery: 7})
	en.Process(event.Event{Type: "A", TS: 100, Seq: 1})
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(p, engine.Env{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.opts.K != 33 || r.opts.LatePolicy != BestEffort || !r.opts.DisableTriggerOpt || r.opts.PurgeEvery != 7 {
		t.Errorf("options not restored: %+v", r.opts)
	}
	if r.clock != 100 || !r.started {
		t.Errorf("clock not restored: %d %v", r.clock, r.started)
	}
	if r.StateSize() != 1 {
		t.Errorf("state not restored: %d", r.StateSize())
	}
}
