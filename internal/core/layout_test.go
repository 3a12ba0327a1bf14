package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"oostream/internal/engine"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/plan"
)

// TestUnkeyedReportsGolden pins what an engine without a key attribute
// reports about its layout, byte for byte as taken at the parent of the
// commit that moved it onto the key-group structures: the one group of the
// zero key is not a partition, so the snapshot names no key attribute, no
// key groups and no top groups, the gauge stays 0, and lineage carries no
// key. The stream stops mid-way so stacks, negatives and pending or
// vulnerable bindings are all live.
func TestUnkeyedReportsGolden(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		// keyless files a partitionable query under the zero key.
		keyless  bool
		opts     Options
		snapshot string
	}{
		{
			name:     "no partition key",
			query:    "PATTERN SEQ(A a, !(N n), B b) WITHIN 60",
			opts:     Options{K: 40},
			snapshot: `{"engine":"native","started":true,"clock":312,"safe":272,"purgeFrontier":212,"stackDepths":[27,24],"keyGroups":0,"negStoreSizes":[44],"pending":40,"lineage":{"enabled":true,"live":40,"bytes":9680}}`,
		},
		{
			name:     "keying disabled",
			query:    "PATTERN SEQ(A a, !(N n), B b) WHERE a.id = n.id AND a.id = b.id WITHIN 60",
			keyless:  true,
			opts:     Options{K: 40},
			snapshot: `{"engine":"native","started":true,"clock":312,"safe":272,"purgeFrontier":212,"stackDepths":[27,24],"keyGroups":0,"negStoreSizes":[44],"pending":12,"lineage":{"enabled":true,"live":12,"bytes":2904}}`,
		},
		{
			name:     "emit then retract",
			query:    "PATTERN SEQ(A a, !(N n), B b) WITHIN 60",
			opts:     Options{K: 40, Emit: EmitThenRetract},
			snapshot: `{"engine":"speculate","started":true,"clock":312,"safe":272,"purgeFrontier":212,"stackDepths":[27,24],"keyGroups":0,"negStoreSizes":[44],"vulnerable":14,"lineage":{"enabled":true,"live":0,"bytes":0}}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Env = engine.Env{Provenance: true}
			p := compile(t, tc.query)
			if tc.keyless {
				p = withoutKey(p)
			}
			en := MustNew(p, tc.opts)
			sorted := gen.Uniform(120, []string{"A", "B", "N"}, 3, 2, 7)
			matches := 0
			for _, e := range gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 40, Seed: 8}) {
				for _, m := range en.Process(e) {
					matches++
					if m.Prov == nil || m.Prov.Key != "" || m.Prov.KeyAttr != "" {
						t.Fatalf("lineage %+v: want a record with no key and no key attribute", m.Prov)
					}
				}
			}
			if matches == 0 {
				t.Fatal("no match carried lineage: nothing was checked")
			}
			got, err := json.Marshal(en.StateSnapshot())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.snapshot {
				t.Errorf("snapshot\n got %s\nwant %s", got, tc.snapshot)
			}
			if n := en.KeyGroups(); n != 0 {
				t.Errorf("KeyGroups() = %d, want 0", n)
			}
			if m := en.Metrics(); m.KeyGroups != 0 || m.PeakKeyGroups != 0 {
				t.Errorf("key group gauge %d (peak %d), want 0", m.KeyGroups, m.PeakKeyGroups)
			}
		})
	}
}

// TestUnkeyedVulnerableNotFilteredUntilDue: an engine without a key attribute
// reaches its vulnerable matches through the expiry order like any other, so
// a purge pass at which none of them is due leaves the list alone. (Before
// the one layout it re-filtered the whole list on every pass.)
func TestUnkeyedVulnerableNotFilteredUntilDue(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WITHIN 1000")
	en := MustNew(p, Options{K: 500, Emit: EmitThenRetract, PurgeEvery: 1})
	seq := event.Seq(0)
	feed := func(typ string, ts event.Time) int {
		seq++
		return len(en.Process(event.Event{Type: typ, TS: ts, Seq: seq}))
	}
	feed("A", 10)
	for i := 0; i < 20; i++ {
		// Every B seals at its own timestamp, 500 ahead of the safe clock.
		if n := feed("B", event.Time(100+i)); n != 1 {
			t.Fatalf("B %d: %d matches, want 1", i, n)
		}
	}
	if en.liveVuln != 20 {
		t.Fatalf("%d vulnerable matches, want 20", en.liveVuln)
	}
	// 21 purge passes ran with nothing due.
	if en.vulnFilters != 0 {
		t.Errorf("vulnerable list filtered %d times while nothing was due, want 0", en.vulnFilters)
	}
	if err := en.CheckDue(); err != nil {
		t.Fatal(err)
	}
	// The pass that finds them due filters the one list once.
	en.Advance(5000)
	if en.vulnFilters != 1 || en.liveVuln != 0 {
		t.Errorf("after the sealing pass: %d filters, %d vulnerable, want 1 and 0", en.vulnFilters, en.liveVuln)
	}
	if err := en.CheckDue(); err != nil {
		t.Fatal(err)
	}
}

// withNoKeyed returns the kernel's section ck with the "noKeyed" flag set,
// as engines that could turn keying off wrote it.
func withNoKeyed(t *testing.T, ck []byte) []byte {
	t.Helper()
	var cf map[string]json.RawMessage
	if err := json.Unmarshal(ck, &cf); err != nil {
		t.Fatal(err)
	}
	cf["noKeyed"] = json.RawMessage("true")
	out, err := json.Marshal(cf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointCrossesKeying: the format carries plain events, so a
// checkpoint written under one choice of key restores under the other — a
// third of the stream keyed by the plan's attribute, a third under the zero
// key, the rest keyed again — with the expiry orders refilled each time and
// the output of an uninterrupted run. What the zero-key engine writes is what
// the keyed one wrote, and a recorded "noKeyed" flag changes nothing: the
// plan alone decides the key.
func TestCheckpointCrossesKeying(t *testing.T) {
	for _, q := range keyedQueries {
		p := compile(t, q)
		sorted := gen.Uniform(240, []string{"A", "B", "C", "N", "SHELF", "COUNTER", "EXIT"}, 6, 4, 9)
		k := event.Time(40)
		shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: k, Seed: 2})
		full := drain(t, p, Options{K: k}, shuffled)

		en := MustNew(p, Options{K: k})
		var out []plan.Match
		for i, third := range [][]event.Event{shuffled[:80], shuffled[80:160], shuffled[160:]} {
			for _, e := range third {
				out = append(out, en.Process(e)...)
			}
			if i == 2 {
				break
			}
			var buf bytes.Buffer
			if err := en.Checkpoint(&buf); err != nil {
				t.Fatalf("%s: checkpoint %d: %v", q, i, err)
			}
			next := p
			if en.Keyed() {
				next = withoutKey(p)
			}
			var err error
			if en, err = restore(next, bytes.NewReader(withNoKeyed(t, buf.Bytes()))); err != nil {
				t.Fatalf("%s: restore %d: %v", q, i, err)
			}
			if en.Keyed() != (next.PartitionKey != "") {
				t.Fatalf("%s: restore %d: Keyed() = %v under plan key %q", q, i, en.Keyed(), next.PartitionKey)
			}
			if err := en.CheckDue(); err != nil {
				t.Fatalf("%s: restore %d: %v", q, i, err)
			}
			if got, want := en.StateSize(), en.recomputeStateSize(); got != want {
				t.Fatalf("%s: restore %d: StateSize %d != recomputed %d", q, i, got, want)
			}
			if err := en.kstacks.CheckColumns(); err != nil {
				t.Fatalf("%s: restore %d: %v", q, i, err)
			}
			var again bytes.Buffer
			if err := en.Checkpoint(&again); err != nil {
				t.Fatalf("%s: checkpoint after restore %d: %v", q, i, err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatalf("%s: restore %d rewrote the state:\n was %s\n now %s", q, i, buf.Bytes(), again.Bytes())
			}
		}
		out = append(out, en.Flush()...)
		if ok, diff := plan.SameResults(full, out); !ok {
			t.Fatalf("%s: run across two re-keyed restores differs:\n%s", q, diff)
		}
	}
}
