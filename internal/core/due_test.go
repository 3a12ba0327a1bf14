package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oostream/internal/event"
	"oostream/internal/gen"
)

// keyedNegQueries put the negation before, between and after the positives of
// a partitionable pattern, so gaps seal at either end of a match.
var keyedNegQueries = []string{
	"PATTERN SEQ(A a, !(N n), B b) WHERE a.id = n.id AND a.id = b.id WITHIN 60",
	"PATTERN SEQ(!(N n), A a, B b) WHERE n.id = a.id AND a.id = b.id WITHIN 60",
	"PATTERN SEQ(A a, B b, !(N n)) WHERE a.id = b.id AND b.id = n.id WITHIN 40",
	"PATTERN SEQ(A a, !(N n), B b, !(M m)) WHERE a.id = n.id AND a.id = b.id AND b.id = m.id WITHIN 50",
}

// keyedSurvivors is what one purge pass must leave of the keyed negative
// stores and vulnerable lists, as the walk over every key group computed it:
// per negation and key the Seqs of the negatives at or above the horizon, per
// key the matches sealing after the safe clock (by the Seq of their last
// event and their seal), no empty group, and how many of each went.
type keyedSurvivors struct {
	negs       []map[event.Value][]event.Seq
	vuln       map[event.Value][]string
	negPurged  int
	vulnSealed int
}

func fullScan(en *Engine, safe event.Time) keyedSurvivors {
	want := keyedSurvivors{vuln: make(map[event.Value][]string)}
	negHorizon := safe - 2*en.plan.Window
	for _, m := range en.knegs {
		left := make(map[event.Value][]event.Seq)
		for key, ns := range m {
			for i := 0; i < ns.Len(); i++ {
				if e := ns.At(i); e.TS < negHorizon {
					want.negPurged++
				} else {
					left[key] = append(left[key], e.Seq)
				}
			}
		}
		want.negs = append(want.negs, left)
	}
	for key, l := range en.vuln {
		for _, pm := range l.items {
			if pm.sealTS > safe {
				want.vuln[key] = append(want.vuln[key], vulnID(pm))
			} else {
				want.vulnSealed++
			}
		}
	}
	return want
}

func vulnID(pm pendingMatch) string {
	return fmt.Sprintf("%d@%d", pm.events[len(pm.events)-1].Seq, pm.sealTS)
}

// check compares the engine's keyed negative stores and vulnerable lists
// with what the full scan said the pass would leave.
func (want keyedSurvivors) check(en *Engine) error {
	for i, m := range en.knegs {
		if len(m) != len(want.negs[i]) {
			return fmt.Errorf("negation %d: %d key groups, full scan leaves %d", i, len(m), len(want.negs[i]))
		}
		for key, ns := range m {
			var got []event.Seq
			for i := 0; i < ns.Len(); i++ {
				got = append(got, ns.At(i).Seq)
			}
			if !slices.Equal(got, want.negs[i][key]) {
				return fmt.Errorf("negation %d key %s: negatives %v, full scan leaves %v", i, key, got, want.negs[i][key])
			}
		}
	}
	if len(en.vuln) != len(want.vuln) {
		return fmt.Errorf("%d vulnerable lists, full scan leaves %d", len(en.vuln), len(want.vuln))
	}
	for key, l := range en.vuln {
		var got []string
		for _, pm := range l.items {
			got = append(got, vulnID(pm))
		}
		if !slices.Equal(got, want.vuln[key]) {
			return fmt.Errorf("key %s: vulnerable %v, full scan leaves %v", key, got, want.vuln[key])
		}
	}
	return nil
}

// TestNegAndVulnDueMatchFullScan holds the expiry orders over the keyed
// negative stores and the vulnerable lists against the walk over every key
// group they replaced: before each purge pass the walk's outcome is computed
// from the live structures, and the pass must purge the same count, leave the
// same survivors per key group and the same group set, keep StateSize equal
// to a recount and keep the orders' invariant — under both emission policies,
// from one hot key to one key per event, with passes at random distances.
func TestNegAndVulnDueMatchFullScan(t *testing.T) {
	for qi, q := range keyedNegQueries {
		p := compile(t, q)
		if p.PartitionKey == "" {
			t.Fatalf("%s: not partitionable", q)
		}
		for _, emit := range []EmitPolicy{SealThenEmit, EmitThenRetract} {
			passes, purged, sealed := 0, 0, 0
			for _, ids := range []int{1, 3, 200} {
				seed := int64(qi*100 + ids)
				k := event.Time(30)
				sorted := gen.Uniform(600, []string{"A", "B", "N", "M"}, ids, 3, seed)
				shuffled := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.4, MaxDelay: k, Seed: seed + 1})
				// The engine never purges on its own here: the test runs the
				// passes, so it can look at the state a pass starts from.
				en := MustNew(p, Options{K: k, Emit: emit, PurgeEvery: 1 << 30})
				rng := rand.New(rand.NewSource(seed))
				for i, e := range shuffled {
					en.Process(e)
					if err := en.CheckDue(); err != nil {
						t.Fatalf("%s emit=%s ids=%d event %d: %v", q, emit, ids, i, err)
					}
					if rng.Intn(6) != 0 {
						continue
					}
					want := fullScan(en, en.safe())
					liveNeg, liveVuln := en.liveNeg, en.liveVuln
					en.since = en.opts.PurgeEvery
					en.maybePurge()
					passes++
					purged += want.negPurged
					sealed += want.vulnSealed
					where := fmt.Sprintf("%s emit=%s ids=%d pass %d (event %d)", q, emit, ids, passes, i)
					if got := liveNeg - en.liveNeg; got != want.negPurged {
						t.Fatalf("%s: purged %d negatives, full scan purges %d", where, got, want.negPurged)
					}
					if got := liveVuln - en.liveVuln; got != want.vulnSealed {
						t.Fatalf("%s: sealed %d vulnerable matches, full scan seals %d", where, got, want.vulnSealed)
					}
					if err := want.check(en); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if got, want := en.StateSize(), en.recomputeStateSize(); got != want {
						t.Fatalf("%s: StateSize %d != recomputed %d", where, got, want)
					}
					if err := en.CheckDue(); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
				en.Flush()
				if err := en.CheckDue(); err != nil {
					t.Fatalf("%s emit=%s ids=%d after flush: %v", q, emit, ids, err)
				}
				if en.vulnDue.Len() != 0 {
					t.Fatalf("%s emit=%s ids=%d: Flush left %d vulnerable due entries", q, emit, ids, en.vulnDue.Len())
				}
			}
			if purged == 0 || (emit == EmitThenRetract && sealed == 0) {
				t.Fatalf("%s emit=%s: %d passes purged %d negatives and sealed %d matches: nothing was exercised", q, emit, passes, purged, sealed)
			}
		}
	}
}

// TestHotKeyVulnerableFilteredOncePerPass: one key holds 591 vulnerable
// matches that all fall due in the same pass, a second key one, and 609
// entries of the first key are left over from retracted matches — 600 from a
// list that was emptied and left the map, 9 from the live one. All 1201
// entries pop, but a pass filters a key's list once, as the walk over every
// list did, and the hot key's 602 buffered negatives go in one purge of its
// store.
func TestHotKeyVulnerableFilteredOncePerPass(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WHERE a.id = n.id AND a.id = b.id WITHIN 100000")
	en := MustNew(p, Options{K: 5000, Emit: EmitThenRetract, PurgeEvery: 1 << 30})
	seq := event.Seq(0)
	feed := func(typ string, ts event.Time, id int64) int {
		seq++
		return len(en.Process(kev(typ, ts, seq, event.Attrs{"id": event.Int(id)})))
	}
	const hot = 600
	feed("A", 10, 1)
	feed("A", 10, 2)
	for i := 0; i < hot; i++ {
		if n := feed("B", event.Time(1000+i), 1); n != 1 {
			t.Fatalf("B %d: %d matches, want 1", i, n)
		}
		// A negative behind the A: it invalidates nothing and is buffered.
		feed("N", event.Time(i%10), 1)
	}
	feed("B", 1300, 2)
	// This negative retracts every match of the hot key: the list leaves the
	// map and its 600 entries stay behind.
	if n := feed("N", 500, 1); n != hot {
		t.Fatalf("negative retracted %d matches, want %d", n, hot)
	}
	// A late A past that negative matches every B again, in a new list; the
	// next negative retracts the 9 of them that end after it.
	if n := feed("A", 600, 1); n != hot {
		t.Fatalf("late A emitted %d matches, want %d", n, hot)
	}
	if n := feed("N", 1590, 1); n != 9 {
		t.Fatalf("second negative retracted %d matches, want 9", n)
	}
	if en.liveVuln != hot-9+1 || en.vulnDue.Len() != 2*hot+1 {
		t.Fatalf("%d vulnerable matches, %d due entries, want %d and %d", en.liveVuln, en.vulnDue.Len(), hot-9+1, 2*hot+1)
	}
	if err := en.CheckDue(); err != nil {
		t.Fatal(err)
	}

	// One pass seals them all: the clock moves past every seal plus K.
	filters, liveNeg := en.vulnFilters, en.liveNeg
	en.Advance(300000)
	if got := en.vulnFilters - filters; got != 2 {
		t.Errorf("the pass filtered vulnerable lists %d times for 2 keys and %d due entries, want 2", got, 2*hot+1)
	}
	if en.liveVuln != 0 || len(en.vuln) != 0 || en.vulnDue.Len() != 0 {
		t.Errorf("after the pass: %d vulnerable, %d lists, %d due entries, want none", en.liveVuln, len(en.vuln), en.vulnDue.Len())
	}
	if liveNeg != hot+2 || en.liveNeg != 0 || len(en.knegs[0]) != 0 {
		t.Errorf("negatives: %d before the pass (want %d), %d after in %d stores (want none)", liveNeg, hot+2, en.liveNeg, len(en.knegs[0]))
	}
	if err := en.CheckDue(); err != nil {
		t.Error(err)
	}
	if got, want := en.StateSize(), en.recomputeStateSize(); got != want {
		t.Errorf("StateSize %d != recomputed %d", got, want)
	}
}

// TestNegativeStoresRecycled: a negative store a purge empties waits on a
// free list for the next key group's first negative, as ais.KeyedStacks
// recycles its groups, so on a warm engine fed short-lived keys negative
// inserts and purges allocate nothing.
func TestNegativeStoresRecycled(t *testing.T) {
	p := compile(t, "PATTERN SEQ(A a, !(N n), B b) WHERE a.id = n.id AND a.id = b.id WITHIN 10")
	en := MustNew(p, Options{K: 0, PurgeEvery: 8})
	stream := make([]event.Event, 80*64)
	for i := range stream {
		// A key lives four ticks; its store empties 2·Window later.
		ts := event.Time(i)
		stream[i] = kev("N", ts, event.Seq(i+1), event.Attrs{"id": event.Int(int64(ts / 4))})
	}
	feed := func() {
		for _, e := range stream[:64] {
			en.Process(e)
		}
		stream = stream[64:]
	}
	for i := 0; i < 20; i++ {
		feed()
	}
	if en.liveNeg == 0 || len(en.negFree) == 0 {
		t.Fatalf("%d negatives buffered, %d stores free: the test exercises nothing", en.liveNeg, len(en.negFree))
	}
	if allocs := testing.AllocsPerRun(50, feed); allocs != 0 {
		t.Errorf("64 negatives over short-lived keys and their purges allocated %.2f times", allocs)
	}
	if err := en.CheckDue(); err != nil {
		t.Fatal(err)
	}
}
