package oostream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/trace"
)

// layerOf names the layer whose record sec is, by a member only that
// layer's record has.
func layerOf(t *testing.T, sec json.RawMessage) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(sec, &m); err != nil {
		t.Fatalf("section %.60s: %v", sec, err)
	}
	for _, blob := range []string{"engine", "inner", "kernel", "parts"} {
		if _, ok := m[blob]; ok {
			t.Errorf("section %.60s nests a layer in %q", sec, blob)
		}
	}
	for _, l := range []struct{ member, layer string }{
		{"walSeg", "store"}, {"lateness", "aggregate"}, {"maxSeen", "levee"},
		{"minDwell", "hybrid"}, {"queries", "set"}, {"planSource", "kernel"},
	} {
		if _, ok := m[l.member]; ok {
			return l.layer
		}
	}
	return "unknown"
}

// checkOneEnvelope holds a checkpoint to one envelope (one magic, at the
// start; none of the older layouts' inside) around the named sections.
func checkOneEnvelope(t *testing.T, name string, data []byte, want []string) {
	t.Helper()
	if !bytes.HasPrefix(data, []byte("OOSECT")) {
		t.Errorf("%s: checkpoint begins %q", name, data[:min(len(data), 6)])
	}
	for magic, n := range map[string]int{"OOSECT": 1, "OORCPT": 0, "OOCKPT": 0, "OOAGGT": 0} {
		if got := bytes.Count(data, []byte(magic)); got != n {
			t.Errorf("%s: %d %s magics, want %d", name, got, magic, n)
		}
	}
	var got []string
	for _, sec := range checkpointSections(t, data) {
		got = append(got, layerOf(t, sec))
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: sections %v, want %v", name, got, want)
	}
}

// newestCheckpoint returns the bytes of the newest checkpoint file in dir.
func newestCheckpoint(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoint in %s: %v", dir, err)
	}
	slices.Sort(names)
	data, err := os.ReadFile(names[len(names)-1])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOneEnvelope: every strategy, with and without aggregation, in memory
// and supervised, and a supervised QuerySet write one envelope around flat
// sections, outermost layer first, none nesting another.
func TestOneEnvelope(t *testing.T) {
	events := restoreStream(100, 40)
	for _, q := range lateQueries(t, "50") {
		for _, s := range Strategies() {
			cfg := Config{Strategy: s, K: 10}
			want := []string{"kernel"}
			switch s {
			case StrategyKSlack:
				want = append([]string{"levee"}, want...)
			case StrategyHybrid:
				want = append([]string{"hybrid"}, want...)
			}
			if q.HasAggregate() {
				want = append([]string{"aggregate"}, want...)
			}
			name := fmt.Sprintf("%s aggregate=%v", s, q.HasAggregate())

			mem := MustNewEngine(q, cfg)
			for _, e := range events {
				mem.Process(e)
			}
			var buf bytes.Buffer
			if err := mem.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			checkOneEnvelope(t, name+" in memory", buf.Bytes(), want)

			dir := t.TempDir()
			sup, err := NewSupervisedEngine(q, cfg, SupervisorConfig{Dir: dir, CheckpointEvery: 16, DisableFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sup.Start(); err != nil {
				t.Fatal(err)
			}
			sup.ProcessAll(events)
			sup.Close()
			checkOneEnvelope(t, name+" supervised", newestCheckpoint(t, dir), append([]string{"store"}, want...))
		}
	}

	dir := t.TempDir()
	qs, err := NewSupervisedQuerySet(QuerySetConfig{K: 10}, SupervisorConfig{Dir: dir, CheckpointEvery: 16, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{setRestoreQueries[0][1], setRestoreQueries[1][1], "PATTERN SEQ(A a, C c) WITHIN 50"} {
		if err := qs.Register(fmt.Sprint("q", i), MustCompile(src, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := qs.Start(); err != nil {
		t.Fatal(err)
	}
	qs.ProcessAll(events)
	qs.Close()
	checkOneEnvelope(t, "supervised QuerySet", newestCheckpoint(t, dir), []string{"store", "levee", "set", "kernel", "kernel", "kernel"})
}

// The files under testdata/hybrid were written by the last version whose
// hybrid switch nested the kernel's checkpoint in its record as base64
// ("kernel"), from resumeFixture's query over testdata/supervised's
// stream.trace, under Config{Strategy: StrategyHybrid, K: 39}:
//
//	hybrid.ckpt  the checkpoint after 150 events
//	hybrid.rest  what that version emitted after it, one match a line, for
//	             the rest of the stream and a flush
//
// testdata/kslack holds, as testdata/supervised does, a supervised
// directory of that version (each checkpoint the store's envelope around
// the levee's record, which nested the kernel's checkpoint as base64 in
// "inner"), killed after 150 events, with what it delivered before the
// kill and on resuming.
//
// TestRestoreLegacyLayoutFixtures: both restore, in the one reader each
// layer has, and finish the stream as the writing version and the
// uninterrupted run do.
func TestRestoreLegacyLayoutFixtures(t *testing.T) {
	t.Run("kslack", func(t *testing.T) {
		resumeFixture(t, "kslack", Config{Strategy: StrategyKSlack, K: 39})
	})
	t.Run("hybrid", func(t *testing.T) {
		const cut = 150
		q := MustCompile("PATTERN SEQ(A a, !(C c), B b) WHERE a.id = b.id AND a.id = c.id WITHIN 50", nil)
		cfg := Config{Strategy: StrategyHybrid, K: 39}
		data, err := os.ReadFile("testdata/supervised/stream.trace")
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := os.ReadFile("testdata/hybrid/hybrid.ckpt")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("testdata/hybrid/hybrid.rest")
		if err != nil {
			t.Fatal(err)
		}
		continuation := func(ckpt []byte) (string, []byte) {
			en, err := RestoreEngine(q, cfg, bytes.NewReader(ckpt))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := en.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			for _, m := range en.ProcessAll(events[cut:]) {
				fmt.Fprintf(&out, "%s\n", m)
			}
			return out.String(), again.Bytes()
		}
		got, again := continuation(ckpt)
		if got != string(want) {
			t.Errorf("the restored hybrid continues differently from the writer\n got:\n%s\nwant:\n%s", got, want)
		}
		if got, _ := continuation(again); got != string(want) {
			t.Error("the checkpoint a restored hybrid writes continues differently")
		}
	})
}

// TestCheckpointRestoresOnlyAsWritten: a checkpoint restores only under the
// strategy and the facade object that wrote it. A layer refuses a section
// that is not its record, and sections left once the configured engine has
// restored are refused, in memory and supervised.
func TestCheckpointRestoresOnlyAsWritten(t *testing.T) {
	q := MustCompile(setRestoreQueries[0][1], nil)
	events := restoreStream(100, 40)
	written := func(s Strategy) []byte {
		en := MustNewEngine(q, Config{Strategy: s, K: 10})
		en.ProcessAll(events)
		var buf bytes.Buffer
		if err := en.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := RestoreQuerySet(QuerySetConfig{K: 10}, bytes.NewReader(written(StrategyKSlack))); err == nil || !strings.Contains(err.Error(), "not the query set's record") {
		t.Errorf("a QuerySet restored from a kslack engine's checkpoint: %v", err)
	}
	if _, err := RestoreEngine(q, Config{Strategy: StrategyKSlack}, bytes.NewReader(written(StrategyHybrid))); err == nil || !strings.Contains(err.Error(), "not the levee's record") {
		t.Errorf("a hybrid checkpoint restored under kslack at K=0: %v", err)
	}

	const extra = "no layer for"
	native := checkpointSections(t, written(StrategyNative))
	twice := sealSections(t, append(native, native...))
	if _, err := RestoreEngine(q, Config{Strategy: StrategyNative, K: 10}, bytes.NewReader(twice)); err == nil || !strings.Contains(err.Error(), extra) {
		t.Errorf("a native checkpoint with a second kernel record restored: %v", err)
	}
	set := checkpointSections(t, setCheckpoint(t, 100, 40))
	if _, err := RestoreQuerySet(setRestoreConfig, bytes.NewReader(sealSections(t, append(set, set[len(set)-1])))); err == nil || !strings.Contains(err.Error(), extra) {
		t.Errorf("a set checkpoint with a record past its queries' restored: %v", err)
	}

	dir := t.TempDir()
	sc := SupervisorConfig{Dir: dir, CheckpointEvery: 16, DisableFsync: true}
	sup, err := NewSupervisedEngine(q, Config{Strategy: StrategyNative, K: 10}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	sup.ProcessAll(events)
	sup.Kill()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	secs := checkpointSections(t, newestCheckpoint(t, dir))
	if err := os.WriteFile(names[len(names)-1], sealSections(t, append(secs, secs[len(secs)-1])), 0o644); err != nil {
		t.Fatal(err)
	}
	sup, err = NewSupervisedEngine(q, Config{Strategy: StrategyNative, K: 10}, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()
	if _, err := sup.Start(); err == nil || !strings.Contains(err.Error(), extra) {
		t.Errorf("a supervised checkpoint with a second kernel record resumed: %v", err)
	}
}

// TestOpenRefusesTrailingBytes: a checkpoint in one of the older envelopes,
// the store's or the kernel's, opens as it is and is refused with a byte
// after its payload, as the sectioned one is.
func TestOpenRefusesTrailingBytes(t *testing.T) {
	var names []string
	for _, pattern := range []string{"testdata/*/*.ckpt", "testdata/*/dir/*.ck", "testdata/partitioned/*/*.ck"} {
		more, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, more...)
	}
	enveloped := 0
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] == '{' {
			continue
		}
		enveloped++
		if _, err := engine.Open(bytes.NewReader(data)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := engine.Open(bytes.NewReader(append(data, '\n'))); err == nil || !strings.Contains(err.Error(), "after its payload") {
			t.Errorf("%s with a byte after its payload: %v", name, err)
		}
	}
	if enveloped < 2 {
		t.Fatalf("%d enveloped fixtures among %v", enveloped, names)
	}
}

// TestSupervisedNaNRecovers: a NaN is durable. A supervised engine admits
// events carrying one, checkpoints them (in the kernel's stacks and, for an
// aggregate, in MAX's partials), is killed, and recovers to deliver, with
// what it delivered before the kill, exactly what the in-memory engine
// delivers over the stream.
func TestSupervisedNaNRecovers(t *testing.T) {
	var events []Event
	for i := 0; i < 60; i++ {
		v := Float(float64(i))
		if i%5 == 2 {
			v = Float(math.NaN())
		}
		events = append(events, NewEvent([]string{"A", "B"}[i%2], Time(3*i), Attrs{"id": Int(int64(i % 3)), "v": v}))
	}
	events = seqd(events...)
	for _, src := range []string{
		"PATTERN SEQ(A a, B b) WHERE a.id = b.id WITHIN 30",
		"AGGREGATE MAX(a.v) OVER SEQ(A a, B b) WHERE a.id = b.id WITHIN 30 SLIDE 10",
	} {
		q := MustCompile(src, nil)
		for _, s := range Strategies() {
			cfg := Config{Strategy: s, K: 10}
			want := fmt.Sprint(MustNewEngine(q, cfg).ProcessAll(events))
			dir := t.TempDir()
			open := func() *Engine {
				en, err := NewSupervisedEngine(q, cfg, SupervisorConfig{Dir: dir, CheckpointEvery: 8, DisableFsync: true})
				if err != nil {
					t.Fatal(err)
				}
				return en
			}
			en := open()
			got, err := en.Start()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events[:37] {
				got = append(got, en.Process(e)...)
			}
			en.Kill()
			en = open()
			ms, err := en.Start()
			if err != nil {
				t.Fatalf("%s %s: recover: %v", src, s, err)
			}
			got = append(got, ms...)
			got = append(got, en.ProcessAll(events[37:])...)
			if err := en.Err(); err != nil {
				t.Fatal(err)
			}
			en.Close()
			if !strings.Contains(want, "NaN") {
				t.Fatalf("%s %s: no NaN reaches the output: %s", src, s, want)
			}
			if fmt.Sprint(got) != want {
				t.Errorf("%s %s: recovered delivery\n%v\nin memory\n%s", src, s, got, want)
			}
		}
	}
}

// FuzzOpenCheckpoint feeds arbitrary bytes to the one sniff (engine.Open)
// and to RestoreEngine and RestoreQuerySet: an error or an engine, never a
// panic. It is seeded with every checkpoint under testdata, each layout
// this module has written, and the supervised directories' store files.
func FuzzOpenCheckpoint(f *testing.F) {
	supervisedQuery := "PATTERN SEQ(A a, !(C c), B b) WHERE a.id = b.id AND a.id = c.id WITHIN 50"
	targets := []struct {
		query string
		cfg   Config
	}{
		{fixtureNegQuery, Config{K: 200}},
		{fixtureAggQuery, Config{K: 200}},
		{adaptiveFixtureQuery, Config{K: 10, Adaptive: Adaptive{Enabled: true, Limits: Limits{MaxLag: 700}}}},
		{supervisedQuery, Config{Strategy: StrategyHybrid, K: 39}},
		{supervisedQuery, Config{Strategy: StrategyKSlack, K: 39}},
		{"PATTERN SEQ(A a, !(N n), B b) WITHIN 100", Config{K: 50}},
	}
	queries := make([]*Query, len(targets))
	for i, tgt := range targets {
		queries[i] = MustCompile(tgt.query, nil)
	}
	seeds, err := filepath.Glob("testdata/*/*.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	for _, glob := range []string{"testdata/*/dir/*.ck", "testdata/partitioned/*/*.ck", "internal/core/testdata/*.ckpt"} {
		more, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, more...)
	}
	for _, name := range seeds {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for i := range len(targets) + 1 {
			f.Add(uint8(i), data)
		}
	}
	f.Fuzz(func(t *testing.T, target uint8, data []byte) {
		if s, err := engine.Open(bytes.NewReader(data)); err == nil {
			for s.More() {
				var raw json.RawMessage
				if s.Next("any", "", &raw) != nil {
					break
				}
			}
		}
		i := int(target) % (len(targets) + 1)
		if i == len(targets) {
			if qs, err := RestoreQuerySet(QuerySetConfig{K: 2000, AdvanceEvery: 16}, bytes.NewReader(data)); err == nil {
				if err := qs.Checkpoint(new(bytes.Buffer)); err != nil {
					t.Fatalf("a restored set cannot checkpoint: %v", err)
				}
			}
			return
		}
		if en, err := RestoreEngine(queries[i], targets[i].cfg, bytes.NewReader(data)); err == nil {
			if err := en.Checkpoint(new(bytes.Buffer)); err != nil {
				t.Fatalf("a restored engine cannot checkpoint: %v", err)
			}
		}
	})
}
