package oostream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oostream/internal/agg"
	"oostream/internal/core"
	"oostream/internal/engine"
	"oostream/internal/trace"
)

// The files under testdata/partitioned were written at a1962f3, the last
// commit with Config.Partition, by engines partitioned on "id" over three
// shards (K = 200, every 50th event of a stream without its id):
//
//	neg.trace, agg.trace  600 events each, in arrival order
//	neg.ckpt              checkpoint after 251 events of neg.trace under the
//	                      negation query: the shards' clocks read 2784, 2816
//	                      and 2808, two of them hold pending bindings, the
//	                      router had refused 5 events
//	agg.ckpt              the same for the GROUP BY aggregate: one shard has
//	                      sealed through window 2400, two through 2300
//	*.emitted             the keys of what the engine had emitted by then
//	supervised/           a supervised directory of the negation query,
//	                      checkpointed at event 300 and killed after 307 with
//	                      no match committed since
//	supervised-past/      the same killed after 328, two matches committed
//	                      past the checkpoint
const (
	fixtureDir      = "testdata/partitioned"
	fixtureNegQuery = "PATTERN SEQ(SHELF s, !(COUNTER c), EXIT e) WHERE s.id = e.id AND s.id = c.id WITHIN 400"
	fixtureAggQuery = "AGGREGATE COUNT(*) OVER SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 400 SLIDE 100 GROUP BY s.id"
)

func fixtureBytes(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(fixtureDir, name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func fixtureTrace(t *testing.T, name string) []Event {
	t.Helper()
	events, err := trace.NewReader(bytes.NewReader(fixtureBytes(t, name))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// fixtureEmitted returns, out of the uninterrupted run's results, the ones
// whose keys the named file lists: what the partitioned engine had delivered
// before its state was saved.
func fixtureEmitted(t *testing.T, name string, whole []Match) []Match {
	t.Helper()
	byKey := make(map[string][]Match)
	for _, m := range whole {
		byKey[m.Key()] = append(byKey[m.Key()], m)
	}
	var out []Match
	for _, key := range strings.Fields(string(fixtureBytes(t, name))) {
		ms := byKey[key]
		if len(ms) == 0 {
			t.Fatalf("%s lists %s, which the uninterrupted run does not emit (that often)", name, key)
		}
		out, byKey[key] = append(out, ms[0]), ms[1:]
	}
	return out
}

// TestRestorePartitionedFixture: state saved by a partitioned engine is not
// stranded now that the kernel's key groups are the only partitioning. Each
// checkpoint restores under a plain Config into one engine that finishes the
// stream as if it had run it from the start, with the kernel's expiry orders
// indexing exactly the merged state; a supervised directory continues when
// nothing was committed past its checkpoint and is refused when something
// was.
func TestRestorePartitionedFixture(t *testing.T) {
	const cut, keyless = 251, 12
	for _, fx := range []struct{ name, query string }{{"neg", fixtureNegQuery}, {"agg", fixtureAggQuery}} {
		t.Run(fx.name, func(t *testing.T) {
			q := MustCompile(fx.query, nil)
			events := fixtureTrace(t, fx.name+".trace")
			whole := MustNewEngine(q, Config{K: 200})
			want := whole.ProcessAll(events)
			ckpt := fixtureBytes(t, fx.name+".ckpt")

			en, err := RestoreEngine(q, Config{K: 200}, bytes.NewReader(ckpt))
			if err != nil {
				t.Fatal(err)
			}
			got := fixtureEmitted(t, fx.name+".emitted", want)
			for _, e := range events[cut:] {
				got = append(got, en.Process(e)...)
			}
			got = append(got, en.Flush()...)
			if ok, diff := SameResults(want, got); !ok {
				t.Errorf("merged restore diverges from the uninterrupted run:\n%s", diff)
			}
			if pe := en.Metrics().PredErrors; pe != keyless || whole.Metrics().PredErrors != keyless {
				t.Errorf("events without id: restored run counts %d, uninterrupted %d, want %d", pe, whole.Metrics().PredErrors, keyless)
			}

			// The merged kernel itself, built as build.go builds it.
			from, err := engine.Open(bytes.NewReader(ckpt))
			if err != nil || from.Parts != 3 {
				t.Fatalf("engine.Open: %+v, %v", from, err)
			}
			var kernel *core.Engine
			restoreKernel := func(s *engine.Sections) (engine.Engine, error) {
				kernel, err = core.Restore(q.plan, engine.Env{}, s)
				return kernel, err
			}
			var top engine.Engine
			if q.plan.Agg != nil {
				top, err = agg.Restore(q.plan, engine.Env{}, from, restoreKernel)
			} else {
				top, err = restoreKernel(from)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := kernel.CheckDue(); err != nil {
				t.Errorf("right after the merge: %v", err)
			}
			for i, e := range events[cut:] {
				top.Process(e)
				if i%50 == 0 {
					if err := kernel.CheckDue(); err != nil {
						t.Fatalf("%d events past the merge: %v", i+1, err)
					}
				}
			}
		})
	}

	q := MustCompile(fixtureNegQuery, nil)
	events := fixtureTrace(t, "neg.trace")
	want := MustNewEngine(q, Config{K: 200}).ProcessAll(events)
	open := func(t *testing.T, name string) *Engine {
		t.Helper()
		dir := t.TempDir()
		files, err := os.ReadDir(filepath.Join(fixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data := fixtureBytes(t, filepath.Join(name, f.Name()))
			if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := NewSupervisedEngine(q, Config{K: 200}, SupervisorConfig{Dir: dir, CheckpointEvery: 100, DisableFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	t.Run("supervised", func(t *testing.T) {
		const offered = 307
		s := open(t, "supervised")
		got := fixtureEmitted(t, "supervised.emitted", want)
		ms, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ms...)
		if ms = s.ProcessAll(events[offered:]); s.Err() != nil {
			t.Fatal(s.Err())
		}
		if ok, diff := SameResults(want, append(got, ms...)); !ok {
			t.Errorf("supervised continuation diverges from the uninterrupted run:\n%s", diff)
		}
	})
	t.Run("supervised-past", func(t *testing.T) {
		_, err := open(t, "supervised-past").Start()
		if err == nil || !strings.Contains(err.Error(), "partitioned engine") || !strings.Contains(err.Error(), "2 matches committed past") {
			t.Fatalf("Start on a partitioned checkpoint with commits past it: %v", err)
		}
	})
}

// partitionedEnvelope is the JSON a partitioned engine's Checkpoint wrote
// around its shards' checkpoints.
type partitionedEnvelope struct {
	Attr        string   `json:"attr"`
	Shards      int      `json:"shards"`
	RouteErrors uint64   `json:"routeErrors"`
	Parts       [][]byte `json:"parts"`
}

// forgePartitioned returns the named fixture checkpoint after edit has had
// its way with the envelope.
func forgePartitioned(tb testing.TB, name string, edit func(*partitionedEnvelope)) []byte {
	tb.Helper()
	var env partitionedEnvelope
	if err := json.Unmarshal(fixtureBytes(tb, name), &env); err != nil {
		tb.Fatal(err)
	}
	edit(&env)
	data, err := json.Marshal(env)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// reforge edits the JSON payload of the checkpoint envelope that leads part
// (the kernel's, or the aggregation operator's in front of the kernel's) and
// seals it again; what follows the envelope is kept.
func reforge(tb testing.TB, part []byte, edit func(map[string]any)) []byte {
	tb.Helper()
	size := binary.LittleEndian.Uint32(part[7:11])
	var payload map[string]any
	if err := json.Unmarshal(part[15:15+size], &payload); err != nil {
		tb.Fatal(err)
	}
	edit(payload)
	body, err := json.Marshal(payload)
	if err != nil {
		tb.Fatal(err)
	}
	out := bytes.Clone(part[:15])
	binary.LittleEndian.PutUint32(out[7:11], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[11:15], crc32.ChecksumIEEE(body))
	return append(append(out, body...), part[15+size:]...)
}

// hostilePartitioned lists the fixtures' checkpoints and forgeries of them,
// each with the restoreTargets row it restores into and what must come of
// it: an error holding wantErr, or (wantErr empty) an engine.
func hostilePartitioned(tb testing.TB) []struct {
	name    string
	target  uint8
	data    []byte
	wantErr string
} {
	const neg, agg = 4, 5
	keep := func(*partitionedEnvelope) {}
	return []struct {
		name    string
		target  uint8
		data    []byte
		wantErr string
	}{
		{"as written", neg, forgePartitioned(tb, "neg.ckpt", keep), ""},
		{"as written, aggregate", agg, forgePartitioned(tb, "agg.ckpt", keep), ""},
		{"parts shorter than shards", neg, forgePartitioned(tb, "neg.ckpt", func(env *partitionedEnvelope) {
			env.Parts = env.Parts[:2]
		}), "2 parts for 3 shards"},
		{"2 GiB of shards", neg, forgePartitioned(tb, "neg.ckpt", func(env *partitionedEnvelope) {
			env.Shards = 1 << 31
		}), "3 parts for 2147483648 shards"},
		{"no parts", neg, forgePartitioned(tb, "neg.ckpt", func(env *partitionedEnvelope) {
			env.Shards, env.Parts = 0, [][]byte{}
		}), "0 parts for 0 shards"},
		{"a part declaring 2 GiB of payload", neg, forgePartitioned(tb, "neg.ckpt", func(env *partitionedEnvelope) {
			binary.LittleEndian.PutUint32(env.Parts[1][7:11], 1<<31)
		}), "truncated"},
		{"parts under different K", neg, forgePartitioned(tb, "neg.ckpt", func(env *partitionedEnvelope) {
			env.Parts[2] = reforge(tb, env.Parts[2], func(ck map[string]any) { ck["k"] = 7 })
		}), "other options"},
		{"parts of different queries", neg, forgePartitioned(tb, "neg.ckpt", func(env *partitionedEnvelope) {
			env.Parts[1] = reforge(tb, env.Parts[1], func(ck map[string]any) { ck["planSource"] = "PATTERN SEQ(A a) WITHIN 1" })
		}), "is for query"},
		{"an unsorted stack list", neg, forgePartitioned(tb, "neg.ckpt", func(env *partitionedEnvelope) {
			env.Parts[0] = reforge(tb, env.Parts[0], func(ck map[string]any) {
				for _, stack := range ck["stacks"].([]any) {
					slices.Reverse(stack.([]any))
				}
			})
		}), ""},
		{"a group in two parts", agg, forgePartitioned(tb, "agg.ckpt", func(env *partitionedEnvelope) {
			env.Parts[1] = env.Parts[0]
		}), "twice"},
		{"parts under different lateness", agg, forgePartitioned(tb, "agg.ckpt", func(env *partitionedEnvelope) {
			env.Parts[1] = reforge(tb, env.Parts[1], func(ck map[string]any) { ck["lateness"] = 7 })
		}), "lateness"},
		{"the aggregate's checkpoint for the pattern query", neg, forgePartitioned(tb, "agg.ckpt", keep), "not the kernel's"},
	}
}

// TestRestorePartitionedHostile: a forged partitioned checkpoint is an error
// that says what is wrong with it, or restores to the state its honest
// original restores to — never a panic, never a quietly different engine.
func TestRestorePartitionedHostile(t *testing.T) {
	outputs := make(map[uint8]string)
	for _, h := range hostilePartitioned(t) {
		t.Run(h.name, func(t *testing.T) {
			tgt := restoreTargets[h.target]
			en, err := RestoreEngine(MustCompile(tgt.query, nil), tgt.cfg, bytes.NewReader(h.data))
			if h.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), h.wantErr) {
					t.Fatalf("restored with error %v, want one holding %q", err, h.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprint(en.ProcessAll(tgt.drive))
			if want, seen := outputs[h.target]; seen && got != want {
				t.Errorf("continues differently from the checkpoint as written:\n got %s\nwant %s", got, want)
			}
			outputs[h.target] = got
		})
	}
}

// testdata/nokeyed was written at e8986e8, the last commit where keying could
// be turned off, over fixtureDir's neg.trace and the negation query:
//
//	neg.ckpt  checkpoint after 251 events under Config{K: 200} with
//	          keying turned off (a Config field of that version): the payload
//	          records "noKeyed":true, five bindings pending, the events
//	          without id filed with the rest
//	neg.rest  what that version emitted after restoring it under
//	          Config{K: 200} and taking the rest of the trace and a flush
//
// Keying never changed results, so the flag is ignored: the checkpoint
// restores into the keyed engine, which drops the events without id (they
// can satisfy no key equality) and emits what the writer did.
func TestRestoreNoKeyedFixture(t *testing.T) {
	const cut = 251
	ckpt, err := os.ReadFile("testdata/nokeyed/neg.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/nokeyed/neg.rest")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(ckpt, []byte(`"noKeyed":true`)) {
		t.Fatal("the fixture records no noKeyed flag: the test checks nothing")
	}
	q := MustCompile(fixtureNegQuery, nil)
	en, err := RestoreEngine(q, Config{K: 200}, bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if s := en.StateSnapshot(); s.KeyAttr != "id" || s.Pending != 5 {
		t.Errorf("restored engine keys by %q with %d pending, want id and 5", s.KeyAttr, s.Pending)
	}
	var got strings.Builder
	for _, m := range en.ProcessAll(fixtureTrace(t, "neg.trace")[cut:]) {
		fmt.Fprintln(&got, m)
	}
	if got.String() != string(want) {
		t.Errorf("continuation differs from the writer's\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
