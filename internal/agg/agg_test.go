package agg

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"oostream/internal/adaptive"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/fiba"
	"oostream/internal/hybrid"
	"oostream/internal/kslack"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

func compile(t *testing.T, src string) *plan.Plan {
	t.Helper()
	p, err := plan.ParseAndCompile(src, nil)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	if p.Agg == nil {
		t.Fatalf("plan has no aggregate spec")
	}
	return p
}

func ev(typ string, ts event.Time, seq event.Seq, attrs event.Attrs) event.Event {
	return event.Event{Type: typ, TS: ts, Seq: seq, Attrs: attrs.List()}
}

// expected computes the ground-truth aggregate matches: oracle pattern
// matches, bucketed into grid windows by brute force with the same spec
// helpers the operator uses.
func expected(t *testing.T, p *plan.Plan, events []event.Event) []plan.Match {
	t.Helper()
	spec := p.Agg
	type elem struct {
		ts    event.Time
		part  fiba.Partial
		group event.Value
	}
	var elems []elem
	for _, m := range oracle.Matches(p, events) {
		ts, part, g, ok := spec.ElementOf(m, nil)
		if !ok {
			continue
		}
		elems = append(elems, elem{ts, part, g})
	}
	endSet := map[event.Time]bool{}
	for _, el := range elems {
		for end := plan.AlignUp(el.ts, spec.Slide); end-p.Window < el.ts; end += spec.Slide {
			endSet[end] = true
		}
	}
	var ends []event.Time
	for end := range endSet {
		ends = append(ends, end)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })

	var out []plan.Match
	for _, end := range ends {
		// Group keys in first-contribution order.
		var keys []event.Value
		seen := map[event.Value]bool{}
		parts := map[event.Value]fiba.Partial{}
		for _, el := range elems {
			if el.ts <= end-p.Window || el.ts > end {
				continue
			}
			gk := event.Value{}
			if spec.GroupSlot >= 0 {
				gk = el.group.MapKey()
			}
			if !seen[gk] {
				seen[gk] = true
				keys = append(keys, gk)
			}
			parts[gk] = parts[gk].Merge(el.part)
		}
		for _, gk := range keys {
			v, n, ok := spec.Result(parts[gk])
			if !ok {
				continue
			}
			av := &plan.AggValue{
				Func:        string(spec.Func),
				WindowStart: end - p.Window,
				WindowEnd:   end,
				Group:       gk,
				HasGroup:    spec.GroupSlot >= 0,
				Value:       v,
				Count:       n,
			}
			if !spec.EvalHaving(av, nil) {
				continue
			}
			out = append(out, plan.Match{Kind: plan.Insert, Events: []event.Event{plan.WindowEvent(end)}, Agg: av})
		}
	}
	return out
}

// genStream produces a K-disordered A/B stream with int attrs v and id.
func genStream(rng *rand.Rand, n int, k event.Time) []event.Event {
	type keyed struct {
		e event.Event
		p event.Time
	}
	evs := make([]keyed, n)
	for i := 0; i < n; i++ {
		typ := "A"
		if rng.Intn(2) == 1 {
			typ = "B"
		}
		ts := event.Time(i * 4)
		e := ev(typ, ts, event.Seq(i+1), event.Attrs{
			"v":  event.Int(int64(rng.Intn(20))),
			"id": event.Int(int64(rng.Intn(3))),
		})
		p := ts
		if k > 0 {
			p += rng.Int63n(k)
		}
		evs[i] = keyed{e, p}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].p < evs[j].p })
	out := make([]event.Event, n)
	for i := range evs {
		out[i] = evs[i].e
	}
	return out
}

func TestSealedTumblingCount(t *testing.T) {
	p := compile(t, "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 100")
	en := New(p, core.MustNew(p, core.Options{K: 0}), false, 0)
	var events []event.Event
	// Two matches in (0,100], one in (100,200].
	for i, spec := range []struct {
		typ string
		ts  event.Time
	}{{"A", 10}, {"B", 20}, {"B", 30}, {"A", 150}, {"B", 160}, {"C", 500}} {
		events = append(events, ev(spec.typ, spec.ts, event.Seq(i+1), nil))
	}
	got := engine.Drain(en, events)
	want := expected(t, p, events)
	if len(want) == 0 {
		t.Fatalf("expected windows, oracle produced none")
	}
	if same, diff := plan.SameResults(got, want); !same {
		t.Fatalf("sealed tumbling COUNT diverges:\n%s", diff)
	}
	for _, m := range got {
		if m.Agg == nil {
			t.Fatalf("non-aggregate match emitted: %s", m)
		}
		if m.Kind != plan.Insert {
			t.Fatalf("sealed mode emitted a retraction: %s", m)
		}
	}
}

func TestSealedEmitsBeforeFlushUnderWatermark(t *testing.T) {
	p := compile(t, "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 100")
	en := New(p, core.MustNew(p, core.Options{K: 10}), false, 10)
	var pre []plan.Match
	pre = append(pre, en.Process(ev("A", 10, 1, nil))...)
	pre = append(pre, en.Process(ev("B", 20, 2, nil))...)
	if len(pre) != 0 {
		t.Fatalf("window emitted before it sealed: %v", pre)
	}
	// Clock 111 puts the watermark at 101 > end 100: the window seals.
	pre = append(pre, en.Process(ev("C", 111, 3, nil))...)
	if len(pre) != 1 || pre[0].Agg == nil || pre[0].Agg.WindowEnd != 100 {
		t.Fatalf("want one sealed window (end 100), got %v", pre)
	}
	if n := pre[0].Agg.Count; n != 1 {
		t.Fatalf("want count 1, got %d", n)
	}
	if rest := en.Flush(); len(rest) != 0 {
		t.Fatalf("flush re-emitted sealed state: %v", rest)
	}
}

func TestAdvanceSealsDuringSilence(t *testing.T) {
	p := compile(t, "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 100")
	en := New(p, core.MustNew(p, core.Options{K: 10}), false, 10)
	var out []plan.Match
	out = append(out, en.Process(ev("A", 10, 1, nil))...)
	out = append(out, en.Process(ev("B", 20, 2, nil))...)
	out = append(out, en.Advance(200)...)
	if len(out) != 1 || out[0].Agg == nil || out[0].Agg.WindowEnd != 100 {
		t.Fatalf("heartbeat did not seal the window: %v", out)
	}
}

func TestSpeculativePreviewAndRevision(t *testing.T) {
	p := compile(t, "AGGREGATE SUM(b.v) OVER SEQ(A a, B b) WITHIN 100")
	sp, err := core.New(p, core.Options{K: 50, Emit: core.EmitThenRetract})
	if err != nil {
		t.Fatal(err)
	}
	en := New(p, sp, true, 50)
	var out []plan.Match
	out = append(out, en.Process(ev("A", 10, 1, nil))...)
	out = append(out, en.Process(ev("B", 20, 2, event.Attrs{"v": event.Int(5)}))...)
	// Clock passes the window end: preview SUM=5.
	out = append(out, en.Process(ev("C", 120, 3, nil))...)
	if len(out) != 1 || out[0].Kind != plan.Insert || out[0].Agg == nil {
		t.Fatalf("want one preview, got %v", out)
	}
	if v, _ := out[0].Agg.Value.AsInt(); v != 5 {
		t.Fatalf("want SUM 5, got %s", out[0].Agg.Value)
	}
	// A late B at 30 (within K of clock 120) adds a new match: the
	// previewed window must be revised as retract(5) + insert(12).
	rev := en.Process(ev("B", 30, 4, event.Attrs{"v": event.Int(7)}))
	var kinds []plan.MatchKind
	for _, m := range rev {
		if m.Agg != nil && m.Agg.WindowEnd == 100 {
			kinds = append(kinds, m.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != plan.Retract || kinds[1] != plan.Insert {
		t.Fatalf("want retract+insert revision, got %v", rev)
	}
	got := append(out, rev...)
	got = append(got, en.Flush()...)
	events := []event.Event{
		ev("A", 10, 1, nil),
		ev("B", 20, 2, event.Attrs{"v": event.Int(5)}),
		ev("C", 120, 3, nil),
		ev("B", 30, 4, event.Attrs{"v": event.Int(7)}),
	}
	if same, diff := plan.SameResults(got, expected(t, p, events)); !same {
		t.Fatalf("speculative net output diverges:\n%s", diff)
	}
	if en.Metrics().AggRevisions == 0 {
		t.Fatalf("revision not counted")
	}
}

func TestGroupedHaving(t *testing.T) {
	p := compile(t, "AGGREGATE SUM(b.v) OVER SEQ(A a, B b) WITHIN 100 GROUP BY b.id HAVING w.value >= 10")
	en := New(p, core.MustNew(p, core.Options{K: 0}), false, 0)
	events := []event.Event{
		ev("A", 10, 1, nil),
		ev("B", 20, 2, event.Attrs{"v": event.Int(12), "id": event.Int(1)}),
		ev("B", 30, 3, event.Attrs{"v": event.Int(3), "id": event.Int(2)}),
	}
	got := engine.Drain(en, events)
	want := expected(t, p, events)
	if same, diff := plan.SameResults(got, want); !same {
		t.Fatalf("grouped HAVING diverges:\n%s", diff)
	}
	for _, m := range got {
		if !m.Agg.HasGroup {
			t.Fatalf("group key missing on %s", m)
		}
		if v, _ := m.Agg.Value.AsInt(); v < 10 {
			t.Fatalf("HAVING passed %s", m)
		}
	}
	if len(got) == 0 {
		t.Fatalf("no window passed HAVING; want the id=1 group")
	}
}

// TestNaNGroupKeyContributesNothing: a NaN GROUP BY key equals no group,
// itself included. As a map key it would open one group per match that no
// later match joins (or, compared by bits, merge what the equality keeps
// apart), so plan.KeyOf refuses it: the match is counted as a predicate
// error and dropped, by the operator and by the brute-force truth alike.
func TestNaNGroupKeyContributesNothing(t *testing.T) {
	p := compile(t, "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 100 GROUP BY b.id")
	en := New(p, core.MustNew(p, core.Options{K: 0}), false, 0)
	events := []event.Event{
		ev("A", 10, 1, nil),
		ev("B", 20, 2, event.Attrs{"id": event.Float(math.NaN())}),
		ev("B", 30, 3, event.Attrs{"id": event.Float(math.NaN())}),
		ev("B", 40, 4, event.Attrs{"id": event.Int(2)}),
	}
	got := engine.Drain(en, events)
	if same, diff := plan.SameResults(got, expected(t, p, events)); !same {
		t.Fatalf("NaN group key diverges:\n%s", diff)
	}
	if len(got) != 1 || got[0].Agg.Count != 1 {
		t.Fatalf("want the id=2 window alone with count 1, got %v", got)
	}
	if m := en.Metrics(); m.PredErrors != 2 || m.AggInserts != 1 {
		t.Fatalf("PredErrors = %d, AggInserts = %d, want 2 and 1", m.PredErrors, m.AggInserts)
	}
}

// TestDifferentialVsOracle runs all aggregate-capable strategies over
// random K-disordered streams and checks each against the brute-force
// ground truth, for every aggregation function and a slide/group/having
// mix.
func TestDifferentialVsOracle(t *testing.T) {
	queries := []string{
		"AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 60",
		"AGGREGATE SUM(b.v) OVER SEQ(A a, B b) WITHIN 80 SLIDE 40",
		"AGGREGATE AVG(a.v) OVER SEQ(A a, B b) WITHIN 60 SLIDE 20",
		"AGGREGATE MIN(b.v) OVER SEQ(A a, B b) WITHIN 80 GROUP BY a.id",
		"AGGREGATE MAX(b.v) OVER SEQ(A a, B b) WITHIN 80 SLIDE 40 HAVING w.count >= 2",
	}
	const k = event.Time(24)
	for qi, src := range queries {
		p := compile(t, src)
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(qi*100 + trial)))
			events := genStream(rng, 120, k)
			want := expected(t, p, events)
			engines := map[string]engine.Engine{
				"native": New(p, core.MustNew(p, core.Options{K: k}), false, k),
				"kslack": New(p, kslack.NewEngine(k, core.MustNew(p, core.Options{}), engine.Env{}), false, k),
			}
			sp, err := core.New(p, core.Options{K: k, Emit: core.EmitThenRetract})
			if err != nil {
				t.Fatal(err)
			}
			engines["speculate"] = New(p, sp, true, k)
			for name, en := range engines {
				got := engine.Drain(en, events)
				if same, diff := plan.SameResults(got, want); !same {
					t.Fatalf("%s diverges from oracle on %q trial %d:\n%s", name, src, trial, diff)
				}
			}
			// Batch path must equal the per-event path.
			bat := New(p, core.MustNew(p, core.Options{K: k}), false, k)
			got := bat.ProcessBatch(events)
			got = append(got, bat.Flush()...)
			if same, diff := plan.SameResults(got, want); !same {
				t.Fatalf("batch path diverges on %q trial %d:\n%s", src, trial, diff)
			}
		}
	}
}

// restore rebuilds an operator over the kernel from the sections r holds,
// as Checkpoint writes them, sealed in the envelope as the facade seals them.
func restore(p *plan.Plan, r io.Reader) (*Engine, error) {
	blob, err := engine.Seal(func(w io.Writer) error {
		_, err := io.Copy(w, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	s, err := engine.Open(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	return Restore(p, engine.Env{}, s, func(s *engine.Sections) (engine.Engine, error) {
		return core.Restore(p, engine.Env{}, s)
	})
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := "AGGREGATE SUM(b.v) OVER SEQ(A a, B b) WITHIN 80 SLIDE 40 GROUP BY a.id"
	p := compile(t, src)
	const k = event.Time(24)
	rng := rand.New(rand.NewSource(7))
	events := genStream(rng, 160, k)
	half := len(events) / 2

	ref := New(p, core.MustNew(p, core.Options{K: k}), false, k)
	var want []plan.Match
	for _, e := range events {
		want = append(want, ref.Process(e)...)
	}
	want = append(want, ref.Flush()...)

	en := New(p, core.MustNew(p, core.Options{K: k}), false, k)
	var got []plan.Match
	for _, e := range events[:half] {
		got = append(got, en.Process(e)...)
	}
	var buf bytes.Buffer
	if err := en.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	restored, err := restore(p, &buf)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, e := range events[half:] {
		got = append(got, restored.Process(e)...)
	}
	got = append(got, restored.Flush()...)
	if same, diff := plan.SameResults(got, want); !same {
		t.Fatalf("restored run diverges from uninterrupted run:\n%s", diff)
	}
	if same, diff := plan.SameResults(got, expected(t, p, events)); !same {
		t.Fatalf("restored run diverges from oracle:\n%s", diff)
	}
}

// TestSpeculativeCheckpointRoundTrip: a speculative operator over the
// speculative kernel checkpoints at any cut, and the restored one continues
// element for element as the uninterrupted run does — previews, revisions
// and the kernel's retractions beneath them included — since the
// checkpoint holds the previews a revision must retract.
func TestSpeculativeCheckpointRoundTrip(t *testing.T) {
	src := "AGGREGATE SUM(b.v) OVER SEQ(A a, !(A n), B b) WHERE a.id = b.id AND a.id = n.id WITHIN 80 SLIDE 20 GROUP BY a.id"
	p := compile(t, src)
	const k = event.Time(24)
	events := genStream(rand.New(rand.NewSource(11)), 160, k)
	fresh := func() *Engine {
		return New(p, core.MustNew(p, core.Options{K: k, Emit: core.EmitThenRetract}), true, k)
	}
	want := engine.Drain(fresh(), events)
	revisions := 0
	for _, m := range want {
		if m.Kind == plan.Retract {
			revisions++
		}
	}
	if revisions == 0 {
		t.Fatal("the stream revises no window: the round trip proves nothing")
	}
	for cut := 0; cut <= len(events); cut += 16 {
		en := fresh()
		var got []plan.Match
		for _, e := range events[:cut] {
			got = append(got, en.Process(e)...)
		}
		var buf bytes.Buffer
		if err := en.Checkpoint(&buf); err != nil {
			t.Fatalf("cut %d: checkpoint: %v", cut, err)
		}
		restored, err := restore(p, &buf)
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		got = append(got, engine.Drain(restored, events[cut:])...)
		if len(got) != len(want) {
			t.Fatalf("cut %d: %d matches, uninterrupted %d", cut, len(got), len(want))
		}
		for i := range want {
			if g, w := fmt.Sprintf("%+v", got[i]), fmt.Sprintf("%+v", want[i]); g != w {
				t.Fatalf("cut %d: match %d\n got  %s\n want %s", cut, i, g, w)
			}
		}
	}
}

func TestMetricsAndSnapshot(t *testing.T) {
	p := compile(t, "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 100 GROUP BY a.id")
	en := NewWithEnv(p, core.MustNew(p, core.Options{K: 10}), false, 10, engine.Env{Provenance: true})
	var out []plan.Match
	out = append(out, en.Process(ev("A", 10, 1, event.Attrs{"id": event.Int(1)}))...)
	out = append(out, en.Process(ev("B", 20, 2, event.Attrs{"id": event.Int(1)}))...)
	out = append(out, en.Advance(300)...)
	if len(out) != 1 {
		t.Fatalf("want one window, got %v", out)
	}
	if out[0].Prov == nil {
		t.Fatalf("provenance enabled but record missing")
	}
	if len(out[0].Prov.Events) != 2 {
		t.Fatalf("want 2 contributing event citations, got %d", len(out[0].Prov.Events))
	}
	if out[0].Prov.Key == "" || out[0].Prov.KeyAttr != "id" {
		t.Fatalf("group key missing from record: %+v", out[0].Prov)
	}
	m := en.Metrics()
	if m.AggWindows != 1 {
		t.Fatalf("AggWindows = %d, want 1", m.AggWindows)
	}
	if m.AggInserts != 1 {
		t.Fatalf("AggInserts = %d, want 1", m.AggInserts)
	}
	s := en.StateSnapshot()
	if s.Engine != "agg(native)" {
		t.Fatalf("snapshot engine = %q", s.Engine)
	}
	if s.Inner == nil {
		t.Fatalf("inner snapshot missing")
	}
	if s.KeyAttr != "id" {
		t.Fatalf("snapshot KeyAttr = %q", s.KeyAttr)
	}
}

// TestSnapshotSafeIsInners: the operator drops nothing, so the safe clock it
// reports is the inner engine's, below which that engine drops an event as
// late. Its own clock runs ahead on an event type the pattern ignores.
func TestSnapshotSafeIsInners(t *testing.T) {
	p := compile(t, "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 100")
	en := New(p, core.MustNew(p, core.Options{K: 10}), false, 10)
	en.Process(ev("A", 100, 1, nil))
	en.Process(ev("C", 5000, 2, nil))
	if s := en.StateSnapshot(); s.Clock != 5000 || s.Safe != 90 || s.Inner.Safe != 90 {
		t.Fatalf("clock %d, safe %d, inner safe %d; want 5000, 90 and 90", s.Clock, s.Safe, s.Inner.Safe)
	}
}

func TestStatePurgesAsWindowsSeal(t *testing.T) {
	p := compile(t, "AGGREGATE COUNT(*) OVER SEQ(A a, B b) WITHIN 40 SLIDE 20")
	en := New(p, core.MustNew(p, core.Options{K: 10}), false, 10)
	var seq event.Seq
	for i := 0; i < 200; i++ {
		ts := event.Time(i * 10)
		seq++
		en.Process(ev("A", ts, seq, nil))
		seq++
		en.Process(ev("B", ts+1, seq, nil))
	}
	elems := 0
	for _, g := range en.groups {
		elems += g.run.Size()
	}
	if elems > 20 || elems != en.elems {
		t.Fatalf("not purging: %d live elements after stream (the engine counts %d)", elems, en.elems)
	}
	if en.Metrics().Purged == 0 {
		t.Fatalf("no purges counted")
	}
}

// TestCheckpointBytesGolden: the checkpoint serializes elements, not the
// structure that holds them or its folds, so the bytes a sealed-mode
// aggregate engine writes after a fixed prefix are those the tree-backed
// operator wrote (hashes taken at e31257a, the parent of the run). The third
// query parks bindings in the kernel's pending queue, several per sealTS:
// since the one-queue change they leave, and are listed, in completion order
// where the heap left them in whatever order its sifts did, so that file
// differs from e31257a's in the order of `pending` and in which of two
// matches sealing together took the earlier element seq (hash retaken).
// Since the one durable format the hashes are of the sealed checkpoint (one
// envelope around the operator's and the kernel's sections): each record
// holds what the two envelopes of ee395dc held, less the kernel's "version"
// member. Since an element is its key and partial, each record is the one
// ce8cdc7 wrote less every element's "match" member (17395, 28456 and 17607
// bytes there).
func TestCheckpointBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		src  string
		size int
		sum  string
	}{
		{"AGGREGATE SUM(b.v) OVER SEQ(A a, B b) WITHIN 80 SLIDE 40 GROUP BY a.id", 14947, "59470e34598d92c4bd4230730184c0e19aec9696c3e0220b401450eefe0bba28"},
		{"AGGREGATE MAX(b.v) OVER SEQ(A a, B b) WHERE a.id = b.id WITHIN 200 SLIDE 4", 24262, "153c2db29aa631a2bfbe662e252991b8c9c6af6080c77e5fdae010915c61346b"},
		{"AGGREGATE AVG(a.v) OVER SEQ(A a, B b, !(A n)) WITHIN 60 SLIDE 20", 17463, "21e1869d4db35a3d20a7b4e21a580e175999c1dbf9698663c5952ad7402958e9"},
	} {
		p := compile(t, tc.src)
		const k = event.Time(24)
		en := New(p, core.MustNew(p, core.Options{K: k}), false, k)
		for _, e := range genStream(rand.New(rand.NewSource(11)), 300, k)[:220] {
			en.Process(e)
		}
		blob, err := engine.Seal(en.Checkpoint)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(blob)); len(blob) != tc.size || sum != tc.sum {
			t.Errorf("%s: checkpoint is %d bytes, sha256 %s; the parent wrote %d bytes, %s", tc.src, len(blob), sum, tc.size, tc.sum)
		}
	}
}

// foldStats sums the fold counters of the live groups' runs.
func (en *Engine) foldStats() (st fiba.RunStats) {
	for _, g := range en.groups {
		s := g.run.Stats()
		st.Queries += s.Queries
		st.QueryMerges += s.QueryMerges
		st.Flips += s.Flips
		st.FlipMerges += s.FlipMerges
		st.Fallbacks += s.Fallbacks
	}
	return st
}

// TestFoldsCoverBoundedDisorder runs the operator over the real kernel on a
// K-disordered stream of one match per id, sealed and speculative, and reads
// the fold counters of its one group: the margin the engine derives from its
// mode and lateness bound must keep every window read, every revision and
// every late element inside what the folds cover. Output is checked against
// the oracle, so a margin too generous to be true would show as a wrong
// window.
func TestFoldsCoverBoundedDisorder(t *testing.T) {
	p := compile(t, "AGGREGATE MAX(b.v) OVER SEQ(A a, B b) WHERE a.id = b.id WITHIN 3000 SLIDE 5")
	const k = event.Time(200)
	// An A and its B every 10 ms, a fifth of the events up to k late.
	rng := rand.New(rand.NewSource(5))
	type arrival struct {
		e  event.Event
		at event.Time
	}
	var arrivals []arrival
	for i := 0; i < 3000; i++ {
		for j, typ := range []string{"A", "B"} {
			ts := event.Time(i*10 + j*5)
			a := arrival{ev(typ, ts, event.Seq(2*i+j+1), event.Attrs{"id": event.Int(int64(i)), "v": event.Int(int64(rng.Intn(1000)))}), ts}
			if rng.Intn(5) == 0 {
				a.at += rng.Int63n(int64(k))
			}
			arrivals = append(arrivals, a)
		}
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })
	events := make([]event.Event, len(arrivals))
	for i := range arrivals {
		events[i] = arrivals[i].e
	}
	want := expected(t, p, sortedByTime(events))
	for _, speculative := range []bool{false, true} {
		opts := core.Options{K: k}
		if speculative {
			opts.Emit = core.EmitThenRetract
		}
		en := New(p, core.MustNew(p, opts), speculative, k)
		var got []plan.Match
		var st fiba.RunStats
		for _, e := range events {
			got = append(got, en.Process(e)...)
			if len(en.groups) == 1 {
				st = en.foldStats()
			}
		}
		got = append(got, en.Flush()...)
		if same, diff := plan.SameResults(got, want); !same {
			t.Fatalf("speculative=%v: diverges from oracle:\n%s", speculative, diff)
		}
		t.Logf("speculative=%v: %d queries, %d query merges, %d flips, %d flip merges, %d fallbacks",
			speculative, st.Queries, st.QueryMerges, st.Flips, st.FlipMerges, st.Fallbacks)
		if st.Queries < 5000 || st.Flips < 5 {
			t.Fatalf("speculative=%v: %d queries and %d flips: the stream is meant to slide the window ten lengths", speculative, st.Queries, st.Flips)
		}
		if st.Fallbacks != 0 {
			t.Errorf("speculative=%v: %d fallbacks under disorder bounded by K, want 0", speculative, st.Fallbacks)
		}
		if st.QueryMerges > 2*st.Queries {
			t.Errorf("speculative=%v: %d merges over %d queries, want at most 2 a query", speculative, st.QueryMerges, st.Queries)
		}
	}
}

// sortedByTime returns a copy of events in timestamp order.
func sortedByTime(events []event.Event) []event.Event {
	out := append([]event.Event(nil), events...)
	event.SortByTime(out)
	return out
}

// TestRetractionFindsItsElement: an element is its group, timestamp and
// partial, and a retraction takes the first element equal in all three (and,
// with provenance on, in its citations). Each case matches several A's with
// one B, so the elements share B's timestamp, and a late C kills one match:
// the speculative and hybrid strategies emit it and retract it, native never
// emits it. (At the bottom of the time range the kill is a trailing negation,
// and the elements at MinInt64 lie in the windows whose start saturates,
// which begin below the range: its one window counts the two that stand,
// where the parent counted only the one at MinInt64+1.) Their net windows,
// compared with the value's kind, must be native's, after one more insert
// each than native and one live element fewer than their inserts.
func TestRetractionFindsItsElement(t *testing.T) {
	const k = event.Time(50)
	const lo = math.MinInt64
	mid := "SEQ(A a, !(C c), B b) WHERE a.id = c.id"
	a := func(ts event.Time, seq event.Seq, id int64, v event.Value) event.Event {
		return ev("A", ts, seq, event.Attrs{"id": event.Int(id), "v": v})
	}
	b := ev("B", 20, 9, nil)
	kill := func(id int64) event.Event { return ev("C", 15, 10, event.Attrs{"id": event.Int(id)}) }
	for _, tc := range []struct {
		name, pattern, arg string
		events             []event.Event
		// windows is native's net windows by function, when pinned.
		windows map[string]string
	}{
		{"NaN retracted", mid, "a.v", []event.Event{a(10, 1, 1, event.Float(math.NaN())), a(11, 2, 2, event.Int(4)), b, kill(1)}, nil},
		{"Float(3.0) retracted beside Int(3)", mid, "a.v", []event.Event{a(10, 1, 1, event.Int(3)), a(11, 2, 2, event.Float(3)), b, kill(2)}, nil},
		{"Int(3) retracted beside Float(3.0)", mid, "a.v", []event.Event{a(10, 1, 1, event.Int(3)), a(11, 2, 2, event.Float(3)), b, kill(1)}, nil},
		{"different element between equals retracted", mid, "a.v", []event.Event{a(10, 1, 1, event.Int(5)), a(11, 2, 2, event.Int(7)), a(12, 3, 3, event.Int(5)), b, kill(2)}, nil},
		{"second of two equals retracted", mid, "a.v", []event.Event{a(10, 1, 1, event.Int(5)), a(11, 2, 2, event.Int(7)), a(12, 3, 3, event.Int(5)), b, kill(3)}, nil},
		{"first of two equals retracted", mid, "a.v", []event.Event{a(10, 1, 1, event.Int(5)), a(11, 2, 2, event.Int(7)), a(12, 3, 3, event.Int(5)), b, kill(1)}, nil},
		{"element at the bottom of the time range", "SEQ(B b, !(C c)) WHERE b.id = c.id", "b.v", []event.Event{
			ev("B", lo, 1, event.Attrs{"id": event.Int(1), "v": event.Int(2)}),
			ev("B", lo, 2, event.Attrs{"id": event.Int(2), "v": event.Int(3)}),
			ev("B", lo+1, 3, event.Attrs{"id": event.Int(3), "v": event.Int(1)}),
			ev("C", lo+5, 4, event.Attrs{"id": event.Int(1)}),
		}, map[string]string{
			"MAX": "map[agg|MAX|-9223372036854775800||3|2|int:1]",
			"SUM": "map[agg|SUM|-9223372036854775800||4|2|int:1]",
		}},
	} {
		for _, fn := range []string{"MAX", "SUM"} {
			for _, prov := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/prov=%v", tc.name, fn, prov)
				p := compile(t, fmt.Sprintf("AGGREGATE %s(%s) OVER %s WITHIN 100", fn, tc.arg, tc.pattern))
				lateness := k
				if p.HasTrailingNegation() {
					lateness += p.Window
				}
				env := engine.Env{Provenance: prov}
				ctrl, err := adaptive.NewController(adaptive.Config{}, k)
				if err != nil {
					t.Fatal(err)
				}
				hy, err := hybrid.New(p, core.Options{K: k}, hybrid.Options{Controller: ctrl})
				if err != nil {
					t.Fatal(err)
				}
				native := NewWithEnv(p, core.MustNew(p, core.Options{K: k}), false, lateness, env)
				want, wantCites, _ := netWindows(native, tc.events)
				if w, ok := tc.windows[fn]; ok && fmt.Sprint(want) != w {
					t.Errorf("%s native: windows %v, want %s", name, want, w)
				}
				for strategy, en := range map[string]*Engine{
					"speculate": NewWithEnv(p, core.MustNew(p, core.Options{K: k, Emit: core.EmitThenRetract}), true, lateness, env),
					"hybrid":    NewWithEnv(p, hy, false, lateness, env),
				} {
					got, cites, live := netWindows(en, tc.events)
					if n := en.Metrics().AggInserts; n != native.Metrics().AggInserts+1 || uint64(live) != n-1 {
						t.Errorf("%s %s: %d inserts and %d live elements, native %d inserts: no retraction was absorbed",
							name, strategy, n, live, native.Metrics().AggInserts)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s %s: windows %v, native %v", name, strategy, got, want)
					}
					if prov && (len(wantCites) == 0 || fmt.Sprint(cites) != fmt.Sprint(wantCites)) {
						t.Errorf("%s %s: windows cite %v, native %v", name, strategy, cites, wantCites)
					}
				}
				// Restored just before the kill, the speculative operator's
				// elements carry no citations: a retraction takes one of them
				// when no element cites its match.
				last := len(tc.events) - 1
				sp := NewWithEnv(p, core.MustNew(p, core.Options{K: k, Emit: core.EmitThenRetract}), true, lateness, env)
				for _, e := range tc.events[:last] {
					if out := sp.Process(e); len(out) > 0 {
						t.Fatalf("%s: a window was previewed before the cut: %v", name, out)
					}
				}
				blob, err := engine.Seal(sp.Checkpoint)
				if err != nil {
					t.Fatal(err)
				}
				sections, err := engine.Open(bytes.NewReader(blob))
				if err != nil {
					t.Fatal(err)
				}
				restored, err := Restore(p, env, sections, func(s *engine.Sections) (engine.Engine, error) {
					return core.Restore(p, engine.Env{}, s)
				})
				if err != nil {
					t.Fatal(err)
				}
				if got, _, _ := netWindows(restored, tc.events[last:]); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s restored speculate: windows %v, native %v", name, got, want)
				}
			}
		}
	}
}

// netWindows runs en over events and returns what stands of each window
// once retractions apply (its value with the value's kind, and count), the
// sorted event seqs the last insert of each window cites (none without
// provenance), and the live elements before the flush reclaims them.
func netWindows(en *Engine, events []event.Event) (map[string]int, map[event.Time][]event.Seq, int) {
	var ms []plan.Match
	for _, e := range events {
		ms = append(ms, en.Process(e)...)
	}
	live := en.elems
	ms = append(ms, en.Flush()...)
	net := map[string]int{}
	cites := map[event.Time][]event.Seq{}
	for _, m := range ms {
		key := fmt.Sprintf("%s|%s", m.Key(), m.Agg.Value.Kind())
		if m.Kind == plan.Retract {
			if net[key]--; net[key] == 0 {
				delete(net, key)
			}
			continue
		}
		net[key]++
		if m.Prov != nil {
			var seqs []event.Seq
			for _, r := range m.Prov.Events {
				seqs = append(seqs, r.Seq)
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			cites[m.Agg.WindowEnd] = seqs
		}
	}
	return net, cites, live
}
