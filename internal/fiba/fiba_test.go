package fiba

import (
	"math"
	"math/rand"
	"testing"

	"oostream/internal/event"
)

// naive is the reference model: a flat list of (key, partial) pairs.
type naive struct {
	keys  []Key
	parts []Partial
}

func (n *naive) insert(k Key, p Partial) {
	i := 0
	for i < len(n.keys) && n.keys[i].Less(k) {
		i++
	}
	n.keys = append(n.keys, Key{})
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = k
	n.parts = append(n.parts, Partial{})
	copy(n.parts[i+1:], n.parts[i:])
	n.parts[i] = p
}

func (n *naive) delete(k Key) bool {
	for i := range n.keys {
		if n.keys[i] == k {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.parts = append(n.parts[:i], n.parts[i+1:]...)
			return true
		}
	}
	return false
}

func (n *naive) purgeThrough(k Key) int {
	i := 0
	for i < len(n.keys) && !k.Less(n.keys[i]) {
		i++
	}
	n.keys = append([]Key(nil), n.keys[i:]...)
	n.parts = append([]Partial(nil), n.parts[i:]...)
	return i
}

func (n *naive) query(lo, hi Key) Partial {
	var p Partial
	for i, k := range n.keys {
		if lo.Less(k) && !hi.Less(k) {
			p = p.Merge(n.parts[i])
		}
	}
	return p
}

func samePartial(a, b Partial) bool {
	if a.Count != b.Count || a.SumI != b.SumI || a.Floaty != b.Floaty {
		return false
	}
	if a.SumF != b.SumF {
		return false
	}
	if a.Min().Valid() != b.Min().Valid() || (a.Min().Valid() && !a.Min().Equal(b.Min())) {
		return false
	}
	if a.Max().Valid() != b.Max().Valid() || (a.Max().Valid() && !a.Max().Equal(b.Max())) {
		return false
	}
	return true
}

func TestPartialMonoid(t *testing.T) {
	id := Partial{}
	a := Of(event.Int(3))
	b := Of(event.Float(1.5))
	c := Of(event.Int(-7))
	if got := id.Merge(a); !samePartial(got, a) {
		t.Fatalf("left identity broken: %+v", got)
	}
	if got := a.Merge(id); !samePartial(got, a) {
		t.Fatalf("right identity broken: %+v", got)
	}
	ab := a.Merge(b)
	if ab.Count != 2 || ab.SumF != 4.5 || !ab.Floaty {
		t.Fatalf("merge int+float: %+v", ab)
	}
	if mn, _ := ab.Min().AsFloat(); mn != 1.5 {
		t.Fatalf("min: %v", ab.Min())
	}
	if mx, _ := ab.Max().AsFloat(); mx != 3 {
		t.Fatalf("max: %v", ab.Max())
	}
	// Associativity on a small sample.
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if !samePartial(left, right) {
		t.Fatalf("associativity: %+v vs %+v", left, right)
	}
	// COUNT-only partials (invalid Min/Max) stay well-formed through merges.
	cnt := CountOnly().Merge(CountOnly())
	if cnt.Count != 2 || cnt.Min().Valid() || cnt.Max().Valid() {
		t.Fatalf("count merge: %+v", cnt)
	}
}

func TestInOrderAppendUsesFingers(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(Key{TS: event.Time(i), Seq: uint64(i)}, Of(event.Int(int64(i))), nil)
	}
	st := tr.Stats()
	if st.FingerHits != 1000 {
		t.Fatalf("in-order appends should all be finger hits, got %d/1000", st.FingerHits)
	}
	if tr.Size() != 1000 {
		t.Fatalf("size: %d", tr.Size())
	}
	if tot := tr.Total(); tot.Count != 1000 || tot.SumI != 999*1000/2 {
		t.Fatalf("total: %+v", tot)
	}
	if tr.Height() < 3 {
		t.Fatalf("1000 keys at fanout %d should be at least 3 levels, got %d", maxKeys, tr.Height())
	}
}

func TestPurgeThroughRemovesPrefix(t *testing.T) {
	tr := New()
	for i := 0; i < 200; i++ {
		tr.Insert(Key{TS: event.Time(i), Seq: uint64(i)}, Of(event.Int(1)), i)
	}
	var seen []int
	n := tr.PurgeThrough(Key{TS: 99, Seq: MaxSeq}, func(aux any) { seen = append(seen, aux.(int)) })
	if n != 100 || len(seen) != 100 {
		t.Fatalf("purged %d (%d aux)", n, len(seen))
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("aux order: seen[%d] = %d", i, v)
		}
	}
	if tr.Size() != 100 {
		t.Fatalf("size after purge: %d", tr.Size())
	}
	if first, ok := tr.First(); !ok || first.TS != 100 {
		t.Fatalf("first after purge: %v %v", first, ok)
	}
}

func TestDeleteToEmpty(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Insert(Key{TS: event.Time(i), Seq: uint64(i)}, Of(event.Int(int64(i))), i)
	}
	perm := rand.New(rand.NewSource(7)).Perm(50)
	for _, i := range perm {
		aux, ok := tr.Delete(Key{TS: event.Time(i), Seq: uint64(i)})
		if !ok || aux.(int) != i {
			t.Fatalf("delete %d: %v %v", i, aux, ok)
		}
	}
	if tr.Size() != 0 || tr.Height() != 0 {
		t.Fatalf("tree not empty: size %d height %d", tr.Size(), tr.Height())
	}
	if _, ok := tr.First(); ok {
		t.Fatal("First on empty tree")
	}
	if tot := tr.Total(); tot.Count != 0 {
		t.Fatalf("total on empty: %+v", tot)
	}
	// Reuse after emptying.
	tr.Insert(Key{TS: 5, Seq: 1}, Of(event.Int(5)), nil)
	if tr.Size() != 1 {
		t.Fatalf("reinsert: %d", tr.Size())
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New()
	if _, ok := tr.Delete(Key{TS: 1}); ok {
		t.Fatal("delete on empty succeeded")
	}
	tr.Insert(Key{TS: 1, Seq: 1}, CountOnly(), nil)
	if _, ok := tr.Delete(Key{TS: 1, Seq: 2}); ok {
		t.Fatal("delete of missing key succeeded")
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(Key{TS: event.Time(i), Seq: uint64(i)}, Of(event.Int(int64(i))), nil)
	}
	var got []event.Time
	tr.Ascend(Key{TS: 10, Seq: MaxSeq}, Key{TS: 20, Seq: MaxSeq}, func(k Key, _ Partial, _ any) bool {
		got = append(got, k.TS)
		return true
	})
	if len(got) != 10 || got[0] != 11 || got[9] != 20 {
		t.Fatalf("ascend (10,20]: %v", got)
	}
	// Early stop.
	n := 0
	tr.Ascend(Key{}, Key{TS: 1 << 40}, func(Key, Partial, any) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop: %d", n)
	}
}

// TestDifferentialVsNaive drives random interleaved inserts (mostly near the
// frontier, as a K-slack stream would), deletes, purges, and range queries
// against the flat-list model.
func TestDifferentialVsNaive(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		tr := New()
		ref := &naive{}
		frontier := event.Time(0)
		var purged event.Time
		live := map[Key]bool{}
		var liveKeys []Key
		seq := uint64(0)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // insert, usually near the frontier
				frontier += event.Time(rng.Intn(4))
				ts := frontier
				if rng.Intn(4) == 0 { // late insert within distance 30
					back := event.Time(rng.Intn(30))
					if ts-back > purged {
						ts -= back
					}
				}
				seq++
				k := Key{TS: ts, Seq: seq}
				var p Partial
				if rng.Intn(5) == 0 {
					p = Of(event.Float(float64(rng.Intn(100)) / 2))
				} else {
					p = Of(event.Int(int64(rng.Intn(100) - 50)))
				}
				tr.Insert(k, p, seq)
				ref.insert(k, p)
				live[k] = true
				liveKeys = append(liveKeys, k)
			case op < 7 && len(liveKeys) > 0: // delete a random live key
				k := liveKeys[rng.Intn(len(liveKeys))]
				if !live[k] {
					continue
				}
				aux, ok := tr.Delete(k)
				if !ok {
					t.Fatalf("trial %d: delete of live key %v failed", trial, k)
				}
				if aux.(uint64) != k.Seq {
					t.Fatalf("trial %d: aux mismatch", trial)
				}
				ref.delete(k)
				delete(live, k)
			case op < 8: // purge a prefix
				cut := purged + event.Time(rng.Intn(10))
				k := Key{TS: cut, Seq: MaxSeq}
				n := tr.PurgeThrough(k, nil)
				if rn := ref.purgeThrough(k); rn != n {
					t.Fatalf("trial %d: purge removed %d, ref %d", trial, n, rn)
				}
				purged = cut
				for lk := range live {
					if !k.Less(lk) {
						delete(live, lk)
					}
				}
			default: // range query
				lo := Key{TS: purged + event.Time(rng.Intn(40)), Seq: MaxSeq}
				hi := Key{TS: lo.TS + event.Time(rng.Intn(40)), Seq: MaxSeq}
				got, want := tr.Query(lo, hi), ref.query(lo, hi)
				if !samePartial(got, want) {
					t.Fatalf("trial %d step %d: query (%v,%v]: %+v vs %+v", trial, step, lo, hi, got, want)
				}
			}
			if tr.Size() != len(ref.keys) {
				t.Fatalf("trial %d step %d: size %d vs %d", trial, step, tr.Size(), len(ref.keys))
			}
			if !samePartial(tr.Total(), ref.query(Key{TS: -1 << 60}, Key{TS: 1 << 60})) {
				t.Fatalf("trial %d step %d: total mismatch", trial, step)
			}
		}
		// Drain and confirm the empty identity.
		tr.PurgeThrough(Key{TS: 1 << 60, Seq: MaxSeq}, nil)
		if tr.Size() != 0 || tr.Total().Count != 0 {
			t.Fatalf("trial %d: drain left %d elements", trial, tr.Size())
		}
	}
}

func TestLateInsertClimbsNotFullSearch(t *testing.T) {
	tr := New()
	for i := 0; i < 10000; i++ {
		tr.Insert(Key{TS: event.Time(i), Seq: uint64(i)}, CountOnly(), nil)
	}
	base := tr.Stats().Climbs
	// An insert 3 behind the frontier should climb far fewer levels than the
	// tree height.
	tr.Insert(Key{TS: 9996, Seq: 1 << 32}, CountOnly(), nil)
	climbed := tr.Stats().Climbs - base
	if int(climbed) >= tr.Height() {
		t.Fatalf("near-frontier insert climbed %d of %d levels", climbed, tr.Height())
	}
}

// TestMergeOrdersNaNAboveNumbers: MIN and MAX over a NaN do not depend on
// the order partials merge in. NaN orders above every number, so MAX is
// NaN and MIN the least number whichever way a window is folded.
func TestMergeOrdersNaNAboveNumbers(t *testing.T) {
	vals := []event.Value{event.Float(2.5), event.Float(math.NaN()), event.Int(-3), event.Float(math.Inf(1)), event.Float(math.NaN())}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var p Partial
		for _, i := range rng.Perm(len(vals)) {
			if rng.Intn(2) == 0 {
				p = p.Merge(Of(vals[i]))
			} else {
				p = Of(vals[i]).Merge(p)
			}
		}
		if mx, _ := p.Max().AsFloat(); mx == mx || p.Min() != event.Int(-3) {
			t.Fatalf("trial %d: MIN %v MAX %v, want -3 and NaN", trial, p.Min(), p.Max())
		}
	}
}
