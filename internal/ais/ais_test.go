package ais

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oostream/internal/event"
)

var seqCounter event.Seq

func ev(ts event.Time) event.Event {
	seqCounter++
	return event.Event{Type: "T", TS: ts, Seq: seqCounter}
}

func TestStackInsertKeepsOrder(t *testing.T) {
	a := New(1)
	for _, ts := range []event.Time{5, 1, 9, 3, 7, 3} {
		a.Insert(0, ev(ts))
	}
	s := a.Stack(0)
	if !s.IsSorted() {
		t.Fatalf("stack not sorted: %s", s)
	}
	if s.Len() != 6 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.At(0).TS != 1 || s.At(s.Len()-1).TS != 9 {
		t.Errorf("bounds wrong: %s", s)
	}
}

func TestStackTiesOrderedBySeq(t *testing.T) {
	a := New(1)
	e1, e2 := ev(5), ev(5)
	a.Insert(0, e2) // later seq inserted first
	if idx := a.Insert(0, e1); idx != 0 {
		t.Errorf("earlier seq inserted at %d, want 0", idx)
	}
	s := a.Stack(0)
	if s.At(0).Seq != e1.Seq || s.At(1).Seq != e2.Seq {
		t.Errorf("ties not ordered by seq: %v, %v", *s.At(0), *s.At(1))
	}
}

func TestSearchHelpers(t *testing.T) {
	a := New(1)
	for _, ts := range []event.Time{10, 20, 20, 30} {
		a.Insert(0, ev(ts))
	}
	s := a.Stack(0)
	tests := []struct {
		ts                    event.Time
		atOrAfter, firstAfter int
	}{
		{5, 0, 0},
		{10, 0, 1},
		{15, 1, 1},
		{20, 1, 3},
		{25, 3, 3},
		{30, 3, 4},
		{35, 4, 4},
	}
	for _, tt := range tests {
		if got := s.FirstAtOrAfter(tt.ts); got != tt.atOrAfter {
			t.Errorf("FirstAtOrAfter(%d) = %d, want %d", tt.ts, got, tt.atOrAfter)
		}
		if got := s.FirstAfter(tt.ts); got != tt.firstAfter {
			t.Errorf("FirstAfter(%d) = %d, want %d", tt.ts, got, tt.firstAfter)
		}
	}
}

// TestReachCoversEverySequence: on random stacks, Reach sets each position's
// run as a linear scan derives it, and every instance of every sequence
// through the given instance — strictly rising timestamps, last minus first
// at most window — lies in its position's run, so an empty run means there is
// no such sequence.
func TestReachCoversEverySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(3)
		a := New(n)
		for p := 0; p < n; p++ {
			for k := rng.Intn(6); k > 0; k-- {
				a.Insert(p, ev(event.Time(rng.Intn(40))))
			}
		}
		pos, ts, window := rng.Intn(n), event.Time(rng.Intn(40)), event.Time(1+rng.Intn(30))
		reach := make([][2]int, n)
		ok := a.Reach(pos, ts, window, reach)
		// The linear scan, level by level outwards from pos.
		want, wantOK := make([][2]int, n), true
		for p, bound := pos-1, ts; p >= 0 && wantOK; p-- {
			s := a.Stack(p)
			want[p] = [2]int{s.Len(), 0}
			for i := 0; i < s.Len(); i++ {
				if s.At(i).TS >= ts-window && s.At(i).TS < bound {
					want[p] = [2]int{min(want[p][0], i), i + 1}
				}
			}
			if wantOK = want[p][0] < want[p][1]; wantOK {
				bound = s.At(want[p][1] - 1).TS
			}
		}
		for p, bound := pos+1, ts; p < n && wantOK; p++ {
			s := a.Stack(p)
			want[p] = [2]int{s.Len(), 0}
			for i := s.Len() - 1; i >= 0; i-- {
				if s.At(i).TS > bound && s.At(i).TS <= ts+window {
					want[p] = [2]int{i, max(want[p][1], i+1)}
				}
			}
			if wantOK = want[p][0] < want[p][1]; wantOK {
				bound = s.At(want[p][0]).TS
			}
		}
		if ok != wantOK {
			t.Fatalf("trial %d: Reach = %v, the scan says %v", trial, ok, wantOK)
		}
		if ok {
			for p := range reach {
				if p != pos && reach[p] != want[p] {
					t.Fatalf("trial %d: position %d reach %v, the scan says %v", trial, p, reach[p], want[p])
				}
			}
		}
		// Every sequence through (pos, ts): choose an index per other position.
		idx := make([]int, n)
		var walk func(p int)
		walk = func(p int) {
			if p == n {
				tsAt := func(q int) event.Time {
					if q == pos {
						return ts
					}
					return a.Stack(q).At(idx[q]).TS
				}
				for q := 1; q < n; q++ {
					if tsAt(q) <= tsAt(q-1) {
						return
					}
				}
				if tsAt(n-1)-tsAt(0) > window {
					return
				}
				if !ok {
					t.Fatalf("trial %d: a sequence exists but Reach reports an empty run", trial)
				}
				for q := 0; q < n; q++ {
					if q != pos && (idx[q] < reach[q][0] || idx[q] >= reach[q][1]) {
						t.Fatalf("trial %d: position %d index %d of a sequence is outside its reach %v", trial, q, idx[q], reach[q])
					}
				}
				return
			}
			if p == pos {
				walk(p + 1)
				return
			}
			for idx[p] = 0; idx[p] < a.Stack(p).Len(); idx[p]++ {
				walk(p + 1)
			}
		}
		walk(0)
	}
}

// both drives the value stacks and the pointer reference with the same
// inserts; rip returns the timestamp of the derived RIP (FirstAtOrAfter−1) of
// the reference instance x at position pos, after checking that it names the
// instance x's stored RIP points at, and that LastFixups agrees.
type both struct {
	t   *testing.T
	a   *Stacks
	ref *refStacks
}

func newBoth(t *testing.T, n int) *both { return &both{t, New(n), newRef(n)} }

func (b *both) insert(pos int, ts event.Time) *refInstance {
	e := ev(ts)
	b.a.Insert(pos, e)
	return b.ref.insert(pos, e)
}

func (b *both) rip(pos int, x *refInstance) any {
	b.t.Helper()
	if err := sameAsRef(b.a, b.ref); err != nil {
		b.t.Fatal(err)
	}
	if d := derivedRIP(b.a, pos, x.ev.TS); d != nil {
		return d.TS
	}
	return nil
}

func TestRIPInOrder(t *testing.T) {
	// Classic SASE: in-order arrivals; RIP = top of previous stack.
	s := newBoth(t, 3)
	s.insert(0, 1)      // A@1
	s.insert(0, 2)      // A@2
	b := s.insert(1, 3) // B@3 -> RIP A@2
	if got := s.rip(1, b); got != event.Time(2) {
		t.Fatalf("B RIP = %v", got)
	}
	s.insert(0, 4) // A@4
	c := s.insert(2, 5)
	if got := s.rip(2, c); got != event.Time(3) {
		t.Fatalf("C RIP = %v", got)
	}
	if s.a.LastFixups() != 0 {
		t.Errorf("an in-order push repaired %d", s.a.LastFixups())
	}
}

func TestRIPNoViablePredecessor(t *testing.T) {
	s := newBoth(t, 2)
	b := s.insert(1, 5) // B before any A
	if got := s.rip(1, b); got != nil {
		t.Fatalf("RIP should be nil, got %v", got)
	}
	// A at the same timestamp is not viable (strict <).
	s.insert(0, 5)
	if got := s.rip(1, b); got != nil {
		t.Fatalf("same-ts A must not become RIP, got %v", got)
	}
	// An earlier A is.
	s.insert(0, 3)
	if got := s.rip(1, b); got != event.Time(3) {
		t.Fatalf("late-arriving earlier A should become RIP, got %v", got)
	}
}

func TestRIPFixupOnOutOfOrderInsert(t *testing.T) {
	s := newBoth(t, 2)
	s.insert(0, 1) // A@1
	b1 := s.insert(1, 4)
	b2 := s.insert(1, 8)
	if s.rip(1, b1) != event.Time(1) || s.rip(1, b2) != event.Time(1) {
		t.Fatal("setup RIPs wrong")
	}
	// Late A@6: must become RIP of B@8 but not B@4.
	s.insert(0, 6)
	if got := s.rip(1, b1); got != event.Time(1) {
		t.Errorf("B@4 RIP = %v, want 1", got)
	}
	if got := s.rip(1, b2); got != event.Time(6) {
		t.Errorf("B@8 RIP = %v, want 6", got)
	}
	if s.a.LastFixups() != 1 {
		t.Errorf("LastFixups = %d, want 1", s.a.LastFixups())
	}
	// Late A@2: RIP of B@4 updates; B@8 keeps A@6.
	s.insert(0, 2)
	if got := s.rip(1, b1); got != event.Time(2) {
		t.Errorf("B@4 RIP = %v, want 2", got)
	}
	if got := s.rip(1, b2); got != event.Time(6) {
		t.Errorf("B@8 RIP = %v, want 6", got)
	}
}

func TestFixupRunIsContiguousAndStops(t *testing.T) {
	s := newBoth(t, 2)
	s.insert(0, 5) // A@5
	bs := []*refInstance{
		s.insert(1, 2),  // B@2, RIP nil
		s.insert(1, 4),  // B@4, RIP nil
		s.insert(1, 6),  // B@6, RIP A@5
		s.insert(1, 10), // B@10, RIP A@5
	}
	// Late A@3: becomes RIP of B@4 only; B@6, B@10 keep A@5.
	s.insert(0, 3)
	wantTS := []any{nil, event.Time(3), event.Time(5), event.Time(5)}
	for i, b := range bs {
		if got := s.rip(1, b); got != wantTS[i] {
			t.Errorf("B[%d] RIP = %v, want %v", i, got, wantTS[i])
		}
	}
	if s.a.LastFixups() != 1 {
		t.Errorf("LastFixups = %d, want the one instance repointed", s.a.LastFixups())
	}
	// Late A@1 lands first and becomes the RIP of B@2 alone; each new last A
	// (A@7, A@8, a second A@8 after the first) becomes the RIP of B@10; A@6
	// lands in front of A@7 and becomes nobody's.
	for _, c := range []struct {
		ts    event.Time
		fixes int
	}{{1, 1}, {7, 1}, {8, 1}, {8, 1}, {6, 0}} {
		s.insert(0, c.ts)
		if s.a.LastFixups() != c.fixes {
			t.Errorf("A@%d: LastFixups = %d, want %d", c.ts, s.a.LastFixups(), c.fixes)
		}
		s.rip(1, bs[0])
	}
}

func TestPurgeBefore(t *testing.T) {
	a := New(2)
	for _, ts := range []event.Time{1, 3, 5, 7} {
		a.Insert(0, ev(ts))
	}
	for _, ts := range []event.Time{2, 6} {
		a.Insert(1, ev(ts))
	}
	n := a.PurgeBefore(func(pos int) event.Time {
		if pos == 0 {
			return 4
		}
		return 3
	})
	if n != 3 {
		t.Fatalf("purged = %d, want 3", n)
	}
	if a.Stack(0).Len() != 2 || a.Stack(0).At(0).TS != 5 {
		t.Errorf("stack0 after purge: %s", a.Stack(0))
	}
	if a.Stack(1).Len() != 1 || a.Stack(1).At(0).TS != 6 {
		t.Errorf("stack1 after purge: %s", a.Stack(1))
	}
	if a.Size() != 3 {
		t.Errorf("Size() = %d", a.Size())
	}
	// Purging nothing is a no-op.
	if got := a.Stack(0).PurgeBefore(0); got != 0 {
		t.Errorf("empty purge removed %d", got)
	}
}

func TestPurgePropertyKeepsSuffix(t *testing.T) {
	f := func(seed int64, horizon uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(1)
		total := 40
		for i := 0; i < total; i++ {
			a.Insert(0, ev(event.Time(rng.Intn(100))))
		}
		h := event.Time(horizon % 100)
		before := a.Stack(0).FirstAtOrAfter(h)
		purged := a.Stack(0).PurgeBefore(h)
		if purged != before {
			return false
		}
		s := a.Stack(0)
		if s.Len() != total-purged || !s.IsSorted() {
			return false
		}
		return s.Len() == 0 || s.At(0).TS >= h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStackString(t *testing.T) {
	a := New(1)
	a.Insert(0, ev(1))
	a.Insert(0, ev(2))
	if got := a.Stack(0).String(); got != "[1 2]" {
		t.Errorf("String() = %q", got)
	}
}
