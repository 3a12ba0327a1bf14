package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
			second, err := restore(p, &buf)
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

// TestVulnerableCheckpointRoundTrip: the emitted matches that can still be
// retracted survive a checkpoint — under EmitThenRetract, and in a sealing
// kernel that still holds them from a speculative phase — so the restored
// engine retracts what the uninterrupted one does, in the same order, and
// its expiry order indexes them (CheckDue).
func TestVulnerableCheckpointRoundTrip(t *testing.T) {
	for _, src := range []string{
		"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = b.id AND a.id = n.id WITHIN 60",
		"PATTERN SEQ(A a, B b, !(N n)) WITHIN 40",
	} {
		p := compile(t, src)
		sorted := gen.Uniform(400, []string{"A", "B", "N"}, 3, 5, 43)
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 40, Seed: 44})
		for _, sealAt := range []int{-1, 150} {
			// sealAt flips the kernel to SealThenEmit before that event.
			run := func(en *Engine, from int, events []event.Event, out []plan.Match) []plan.Match {
				for i, e := range events {
					if from+i == sealAt {
						out = append(out, en.SetEmitPolicy(SealThenEmit)...)
					}
					out = append(out, en.Process(e)...)
				}
				return out
			}
			want := append(run(MustNew(p, Options{K: 40, Emit: EmitThenRetract}), 0, shuffled, nil), plan.Match{})
			retracts, vulnerable := 0, 0
			for _, cut := range []int{37, 153, 333} {
				first := MustNew(p, Options{K: 40, Emit: EmitThenRetract})
				got := run(first, 0, shuffled[:cut], nil)
				if cut > sealAt {
					vulnerable += first.liveVuln
				}
				var buf bytes.Buffer
				if err := first.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				second, err := restore(p, &buf)
				if err != nil {
					t.Fatal(err)
				}
				if second.EmitPolicy() != first.EmitPolicy() || second.liveVuln != first.liveVuln || second.StateSize() != first.StateSize() {
					t.Fatalf("%s cut %d: restored %s with %d vulnerable, want %s with %d", src, cut, second.EmitPolicy(), second.liveVuln, first.EmitPolicy(), first.liveVuln)
				}
				if err := second.CheckDue(); err != nil {
					t.Fatalf("%s cut %d: %v", src, cut, err)
				}
				got = append(run(second, cut, shuffled[cut:], got), plan.Match{})
				if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
					t.Fatalf("%s seal at %d, cut %d: the restored run differs", src, sealAt, cut)
				}
				for _, m := range got {
					if m.Kind == plan.Retract {
						retracts++
					}
				}
			}
			if retracts == 0 || vulnerable == 0 {
				t.Fatalf("%s seal at %d: %d retractions, %d vulnerable matches checkpointed: nothing to compare", src, sealAt, retracts, vulnerable)
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
	restored, err := restore(p, &buf)
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

// restore rebuilds a kernel from the sections r holds, as Checkpoint writes
// them: sealed in the envelope, as the facade seals them, and opened.
func restore(p *plan.Plan, r io.Reader) (*Engine, error) {
	blob, err := engine.Seal(func(w io.Writer) error {
		_, err := io.Copy(w, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return open(p, bytes.NewReader(blob))
}

// open rebuilds a kernel from a checkpoint, envelope and all.
func open(p *plan.Plan, r io.Reader) (*Engine, error) {
	s, err := engine.Open(r)
	if err != nil {
		return nil, err
	}
	return Restore(p, engine.Env{}, s)
}

func TestRestoreErrors(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	en := MustNew(p, Options{K: 10})
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	other := compile(t, "PATTERN SEQ(A a, C c) WITHIN 50")
	if _, err := restore(other, bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "is for query") {
		t.Errorf("plan mismatch: %v", err)
	}
	if _, err := restore(p, strings.NewReader("{garbage")); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	if _, err := restore(p, strings.NewReader(`{"version":99}`)); err == nil ||
		!strings.Contains(err.Error(), "not the kernel's") {
		t.Errorf("a record naming no query: %v", err)
	}
	if _, err := restore(p, strings.NewReader(`{"version":1,"planSource":"`+p.Source+`","stacks":[[]]}`)); err == nil ||
		!strings.Contains(err.Error(), "shape") {
		t.Errorf("shape mismatch: %v", err)
	}
	// The writer lists each stack and negative store in (TS, Seq) order, so
	// a list in another is a damaged record, not one to sort.
	neg := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 50")
	unsorted := `[{"type":"%[1]s","ts":100,"seq":2},{"type":"%[1]s","ts":90,"seq":1}]`
	for _, tc := range []struct {
		p            *plan.Plan
		stacks, negs string
	}{
		{p, "[" + fmt.Sprintf(unsorted, "A") + ",[]]", "[]"},
		{neg, `[[],[{"type":"B","ts":95,"seq":4},{"type":"B","ts":95,"seq":3}]]`, "[[]]"},
		{neg, "[[],[]]", "[" + fmt.Sprintf(unsorted, "N") + "]"},
	} {
		ck := `{"planSource":"` + tc.p.Source + `","k":10,"latePolicy":1,"purgeEvery":64,"clock":100,"started":true,` +
			`"stacks":` + tc.stacks + `,"negStores":` + tc.negs + `}`
		if _, err := restore(tc.p, strings.NewReader(ck)); err == nil || !strings.Contains(err.Error(), "damaged") {
			t.Errorf("stacks %s, negative stores %s: %v, want a damaged-record error", tc.stacks, tc.negs, err)
		}
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
	full, err := engine.Seal(en.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: the intact envelope restores.
	if _, err := open(p, bytes.NewReader(full)); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}

	for _, cut := range []int{0, 1, 5, 14, 15, len(full) / 2, len(full) - 1} {
		if _, err := open(p, bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d accepted", cut, len(full))
		}
	}
	for _, pos := range []int{0, 6, 8, 12, 15, 40, len(full) - 1} {
		flipped := append([]byte(nil), full...)
		flipped[pos] ^= 0x20
		if _, err := open(p, bytes.NewReader(flipped)); err == nil {
			t.Errorf("bit flip at %d accepted", pos)
		}
	}
	// A flipped bit in the header is damage, never a layout older than the
	// envelope: a store falls back past damage but refuses an older layout.
	for pos := range 7 {
		for bit := range 8 {
			flipped := append([]byte(nil), full...)
			flipped[pos] ^= 1 << bit
			if _, err := open(p, bytes.NewReader(flipped)); err == nil || errors.Is(err, engine.ErrHorizon) {
				t.Errorf("bit %d flipped at %d: %v, want a damaged header", bit, pos, err)
			}
		}
	}
	if _, err := open(p, bytes.NewReader(nil)); err == nil {
		t.Error("empty checkpoint accepted")
	}
	for _, tail := range []string{"\n", "x", string(full)} {
		if _, err := open(p, strings.NewReader(string(full)+tail)); err == nil || !strings.Contains(err.Error(), "after its payload") {
			t.Errorf("%d bytes after the payload: %v", len(tail), err)
		}
	}

	// A header declaring 2 GiB in front of a few bytes is a truncation like
	// any other: the declared length must not be allocated ahead of the data.
	huge := append([]byte(nil), full[:32]...)
	binary.LittleEndian.PutUint32(huge[7:11], 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = open(p, bytes.NewReader(huge))
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
		if _, err := restore(p, strings.NewReader(ck)); err == nil ||
			!strings.Contains(err.Error(), "pending binding 0 holds") {
			t.Errorf("pending events %s: %v, want a pending-binding shape error", events, err)
		}
	}
}

// TestRestoreRefusesOtherLatePolicy: a checkpoint written under the
// best-effort late policy (2) of earlier versions is refused, not run as if
// it had dropped what it processed; one without a policy too.
func TestRestoreRefusesOtherLatePolicy(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	for _, policy := range []string{`"latePolicy":2,`, ``} {
		ck := `{"version":1,"planSource":"` + p.Source + `","k":10,` + policy + `"purgeEvery":64,` +
			`"clock":100,"started":true,"stacks":[[],[]],"negStores":[]}`
		if _, err := restore(p, strings.NewReader(ck)); err == nil ||
			!strings.Contains(err.Error(), "late policy") {
			t.Errorf("checkpoint with %q: %v, want a late-policy error", policy, err)
		}
	}
}

func TestCheckpointRestoresOptionsAndClock(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, B b) WITHIN 50")
	en := MustNew(p, Options{K: 33, DisableTriggerOpt: true, PurgeEvery: 7})
	en.Process(event.Event{Type: "A", TS: 100, Seq: 1})
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := restore(p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.opts.K != 33 || !r.opts.DisableTriggerOpt || r.opts.PurgeEvery != 7 {
		t.Errorf("options not restored: %+v", r.opts)
	}
	if r.clock != 100 || !r.started {
		t.Errorf("clock not restored: %d %v", r.clock, r.started)
	}
	if r.StateSize() != 1 {
		t.Errorf("state not restored: %d", r.StateSize())
	}
}

// pendingOrderStream parks five bindings of SEQ(A a, !(N n), B b) in
// pending, completed in an order (sealTS 40, 30, 35, 20, 25) a binary heap
// leaves unsorted in its array, then continues with a late negative that
// suppresses two of them, more bindings, and enough clock to seal them all.
var pendingOrderStream = struct {
	query        string
	k            event.Time
	prefix, rest []event.Event
}{
	query: "PATTERN SEQ(A a, !(N n), B b) WITHIN 100",
	k:     50,
	prefix: []event.Event{
		{Type: "A", TS: 10, Seq: 1},
		{Type: "B", TS: 40, Seq: 2}, {Type: "B", TS: 30, Seq: 3}, {Type: "B", TS: 35, Seq: 4},
		{Type: "B", TS: 20, Seq: 5}, {Type: "B", TS: 25, Seq: 6},
	},
	rest: []event.Event{
		{Type: "N", TS: 33, Seq: 7}, {Type: "A", TS: 22, Seq: 8}, {Type: "B", TS: 60, Seq: 9},
		{Type: "B", TS: 95, Seq: 10}, {Type: "A", TS: 70, Seq: 11}, {Type: "B", TS: 130, Seq: 12},
		{Type: "B", TS: 200, Seq: 13},
	},
}

// TestRestoreAcceptsAnyPendingOrder: a checkpoint lists pending in whatever
// order its writer held it — the parent of the one-queue change wrote its
// heap's array (testdata/pending_heap_order.ckpt is that commit's record for
// pendingOrderStream's prefix, byte for byte, in the one envelope: sealTS 20,
// 25, 35, 40, 30) — and the restored engine continues exactly as the
// uninterrupted run, match for match.
func TestRestoreAcceptsAnyPendingOrder(t *testing.T) {
	s := pendingOrderStream
	p := compile(t, s.query)
	whole := MustNew(p, Options{K: s.k})
	var want []plan.Match
	for _, e := range s.prefix {
		want = append(want, whole.Process(e)...)
	}
	if len(want) != 0 || whole.pending.Len() != 5 {
		t.Fatalf("prefix: %d matches out and %d pending, want 0 and 5", len(want), whole.pending.Len())
	}
	for _, e := range s.rest {
		want = append(want, whole.Process(e)...)
	}
	want = append(want, whole.Flush()...)

	parent, err := os.ReadFile(filepath.Join("testdata", "pending_heap_order.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(parent[15:], &cf); err != nil {
		t.Fatal(err)
	}
	var seals []event.Time
	for _, pm := range cf.Pending {
		seals = append(seals, pm.SealTS)
	}
	if slices.IsSorted(seals) || len(seals) != 5 {
		t.Fatalf("the parent's file lists pending as %v: want five, not sorted", seals)
	}
	// permuted is the file's record with its pending list reordered, in the
	// envelope.
	permuted := func(reorder func([]checkpointPending)) []byte {
		c := cf
		c.Pending = slices.Clone(cf.Pending)
		reorder(c.Pending)
		b, err := engine.Seal(func(w io.Writer) error { return engine.WriteSection(w, c) })
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"the parent's record, heap order", parent},
		{"reversed", permuted(slices.Reverse[[]checkpointPending])},
		{"sorted", permuted(func(l []checkpointPending) {
			slices.SortFunc(l, func(a, b checkpointPending) int { return int(a.SealTS - b.SealTS) })
		})},
	} {
		en, err := open(p, bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []plan.Match
		for _, e := range s.rest {
			got = append(got, en.Process(e)...)
		}
		got = append(got, en.Flush()...)
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
			t.Errorf("%s: continued\n%s\nthe uninterrupted run\n%s", tc.name, g, w)
		}
	}
}

// TestEqualSealLeavesInCompletionOrder pins the tie rule: bindings that seal
// at one timestamp leave pending in the order they were completed — on the
// per-event path, on the batch path and across a restore. (A binary heap
// handed three equal keys back first, third, second.)
func TestEqualSealLeavesInCompletionOrder(t *testing.T) {
	// Trailing negation: every binding of A@10 seals at 10 + 100.
	p := compile(t, "PATTERN SEQ(A a, B b, !(N n)) WITHIN 100")
	parked := []event.Event{
		{Type: "A", TS: 10, Seq: 1},
		{Type: "B", TS: 20, Seq: 2}, {Type: "B", TS: 30, Seq: 3}, {Type: "B", TS: 25, Seq: 4},
	}
	sealing := event.Event{Type: "B", TS: 200, Seq: 5}
	const want = "[20 30 25]"
	order := func(out []plan.Match) string {
		var bs []event.Time
		for _, m := range out {
			bs = append(bs, m.Events[1].TS)
		}
		return fmt.Sprint(bs)
	}

	perEvent := MustNew(p, Options{K: 20})
	for _, e := range parked {
		if out := perEvent.Process(e); len(out) != 0 {
			t.Fatalf("%v emitted %v ahead of its seal", e, out)
		}
	}
	if perEvent.pending.Len() != 3 {
		t.Fatalf("%d pending, want 3", perEvent.pending.Len())
	}
	var buf bytes.Buffer
	if err := perEvent.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if got := order(perEvent.Process(sealing)); got != want {
		t.Errorf("per event: B timestamps %s, want %s", got, want)
	}

	batch := MustNew(p, Options{K: 20})
	if got := order(batch.ProcessBatch(append(slices.Clone(parked), sealing))); got != want {
		t.Errorf("batch: B timestamps %s, want %s", got, want)
	}

	restored, err := restore(p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := order(restored.Process(sealing)); got != want {
		t.Errorf("restored: B timestamps %s, want %s", got, want)
	}
}

// sharedQuery repeats a type with no local predicate around a negation: its
// three positions share one stack.
const sharedQuery = "PATTERN SEQ(T a, T b, !(N n), T c) WHERE a.id = b.id AND b.id = c.id AND a.id = n.id AND c.v > a.v WITHIN 40"

// sharedStream is 400 events of sharedQuery's types, three keys, disordered
// by up to ten ticks.
func sharedStream() []event.Event {
	var out []event.Event
	for i := 0; i < 400; i++ {
		typ := "T"
		if i%7 == 3 {
			typ = "N"
		}
		ts := event.Time(2*i - 37*i%11)
		out = append(out, kev(typ, ts, event.Seq(i+1), event.Attrs{"id": event.Int(int64(i % 3)), "v": event.Int(int64(13 * i % 10))}))
	}
	return out
}

// TestRestoreSharedFromPerPositionStacks: testdata/shared_stacks_eb4773e.ckpt
// is the checkpoint a version that kept one stack per position wrote after
// the first 200 events of sharedStream (K 12, a purge every 8 events), when
// its final position had purged instances the first still held. Restored
// into one shared stack, the engine's expiry orders and columns hold, and it
// continues as the uninterrupted run, match for match.
func TestRestoreSharedFromPerPositionStacks(t *testing.T) {
	p := compile(t, sharedQuery)
	if en := MustNew(p, Options{}); en.lead == nil {
		t.Fatal("the positions of T share no stack")
	}
	stream := sharedStream()
	opts := Options{K: 12, PurgeEvery: 8}
	whole := MustNew(p, opts)
	for _, e := range stream[:200] {
		whole.Process(e)
	}
	var want []plan.Match
	for _, e := range stream[200:] {
		want = append(want, whole.Process(e)...)
	}
	want = append(want, whole.Flush()...)
	if len(want) == 0 {
		t.Fatal("the continuation emits nothing: the test checks nothing")
	}

	data, err := os.ReadFile(filepath.Join("testdata", "shared_stacks_eb4773e.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data[15:], &cf); err != nil {
		t.Fatal(err)
	}
	if len(cf.Stacks[2]) >= len(cf.Stacks[0]) {
		t.Fatalf("the file's final list holds %d instances, its first %d: want fewer", len(cf.Stacks[2]), len(cf.Stacks[0]))
	}
	en, err := open(p, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := en.CheckDue(); err != nil {
		t.Fatal(err)
	}
	if err := en.kstacks.CheckColumns(); err != nil {
		t.Fatal(err)
	}
	var got []plan.Match
	for _, e := range stream[200:] {
		got = append(got, en.Process(e)...)
	}
	got = append(got, en.Flush()...)
	if len(got) != len(want) {
		t.Fatalf("restored run emitted %d matches, the uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("match %d: restored %+v, uninterrupted %+v", i, got[i], want[i])
		}
	}
}
