package ais

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"oostream/internal/event"
)

// refInstance and refStacks are the pointer-based AIS the package kept before
// its stacks held events by value: every instance stores its RIP, set at
// insertion by binary search in the previous stack and repointed by fixupNext
// when a later-arriving predecessor lands in front of it. They are the
// reference the value stacks, their derived RIP (FirstAtOrAfter−1) and
// LastFixups are held against.
type refInstance struct {
	ev  event.Event
	rip *refInstance
}

type refStacks struct {
	stacks  [][]*refInstance
	lastFix int
}

func newRef(n int) *refStacks { return &refStacks{stacks: make([][]*refInstance, n)} }

// latestBefore returns the latest instance of position pos with TS < ts.
func (a *refStacks) latestBefore(pos int, ts event.Time) *refInstance {
	s := a.stacks[pos]
	idx := sort.Search(len(s), func(i int) bool { return s[i].ev.TS >= ts })
	if idx == 0 {
		return nil
	}
	return s[idx-1]
}

func (a *refStacks) insert(pos int, e event.Event) *refInstance {
	inst := &refInstance{ev: e}
	s := a.stacks[pos]
	idx := sort.Search(len(s), func(i int) bool { return e.Before(s[i].ev) })
	a.stacks[pos] = slices.Insert(s, idx, inst)
	if pos > 0 {
		inst.rip = a.latestBefore(pos-1, e.TS)
	}
	a.lastFix = 0
	if pos+1 < len(a.stacks) {
		a.lastFix = a.fixupNext(pos+1, inst)
	}
	return inst
}

// fixupNext repoints the instances of position nextPos whose correct RIP
// becomes inst: those with TS > inst's and a current RIP ordered before inst
// (or none). The correct RIP is monotone along a sorted stack, so the run is
// contiguous and ends at the first instance whose RIP is inst or later.
func (a *refStacks) fixupNext(nextPos int, inst *refInstance) int {
	next := a.stacks[nextPos]
	n := 0
	for i := sort.Search(len(next), func(i int) bool { return next[i].ev.TS > inst.ev.TS }); i < len(next); i++ {
		x := next[i]
		if x.rip != nil && !x.rip.ev.Before(inst.ev) {
			break
		}
		x.rip = inst
		n++
	}
	return n
}

// purgeBefore drops the instances of position pos with TS < h. RIPs pointing
// at them are left stale, as the pointer AIS left them.
func (a *refStacks) purgeBefore(pos int, h event.Time) int {
	s := a.stacks[pos]
	idx := sort.Search(len(s), func(i int) bool { return s[i].ev.TS >= h })
	a.stacks[pos] = s[idx:]
	return idx
}

// derivedRIP returns the event the value stacks name as the RIP of an
// instance with timestamp ts at position pos: index FirstAtOrAfter(ts)−1 of
// position pos−1, or nil when there is none.
func derivedRIP(a *Stacks, pos int, ts event.Time) *event.Event {
	prev := a.Stack(pos - 1)
	if i := prev.FirstAtOrAfter(ts) - 1; i >= 0 {
		return prev.At(i)
	}
	return nil
}

// sameAsRef reports the first difference between the value stacks and the
// reference: per position the same events in the same order; per instance
// beyond the first position, a derived RIP naming the event the reference's
// RIP points at — or, where none is derived, a reference RIP that is nil or
// stale (ordered before every live instance of the previous position); and
// equal LastFixups.
func sameAsRef(a *Stacks, ref *refStacks) error {
	if a.LastFixups() != ref.lastFix {
		return fmt.Errorf("LastFixups %d, reference repointed %d", a.LastFixups(), ref.lastFix)
	}
	for pos, want := range ref.stacks {
		s := a.Stack(pos)
		if s.Len() != len(want) || !s.IsSorted() {
			return fmt.Errorf("position %d: %s, reference has %d instances", pos, s, len(want))
		}
		for i, x := range want {
			if got := s.At(i); got.Seq != x.ev.Seq || got.TS != x.ev.TS {
				return fmt.Errorf("position %d index %d: %d#%d, reference %d#%d", pos, i, got.TS, got.Seq, x.ev.TS, x.ev.Seq)
			}
			if pos == 0 {
				continue
			}
			prev := ref.stacks[pos-1]
			switch d := derivedRIP(a, pos, x.ev.TS); {
			case d != nil && (x.rip == nil || x.rip.ev.Seq != d.Seq):
				return fmt.Errorf("position %d instance %d#%d: derived RIP %d#%d, reference RIP %v", pos, x.ev.TS, x.ev.Seq, d.TS, d.Seq, x.rip)
			case d == nil && x.rip != nil && len(prev) > 0 && !x.rip.ev.Before(prev[0].ev):
				return fmt.Errorf("position %d instance %d#%d: no RIP derived, reference RIP %d#%d is live", pos, x.ev.TS, x.ev.Seq, x.rip.ev.TS, x.rip.ev.Seq)
			}
		}
	}
	return nil
}

// matchesReference drives the value stacks and the reference with the
// operations data encodes and checks them against each other after every
// step. The first byte picks 1–3 positions. Each following byte is an
// insert (an event at position b%n, its timestamp within 8 of the position's
// purge floor, so ties within and across positions are common) or, one byte
// in four, a purge whose horizons the next bytes give. An insert never lands
// below a horizon its position was purged at: the engine drops such an event
// as late before it reaches the stacks, and the pointer AIS's stale RIPs
// would count its fix-up differently.
func matchesReference(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	n := 1 + int(data[0]%3)
	a, ref := New(n), newRef(n)
	floor := make([]event.Time, n)
	var seq event.Seq
	next := func(i *int) byte {
		*i++
		if *i < len(data) {
			return data[*i]
		}
		return 0
	}
	for i := 1; i < len(data); i++ {
		b := data[i]
		if b%4 != 0 {
			pos := int(b>>2) % n
			seq++
			e := event.Event{Type: "T", TS: floor[pos] + event.Time(next(&i)%8), Seq: seq}
			a.Insert(pos, e)
			ref.insert(pos, e)
		} else {
			horizons := make([]event.Time, n)
			for pos := range horizons {
				horizons[pos] = floor[pos] + event.Time(next(&i)%8) - 2
			}
			got := a.PurgeBefore(func(pos int) event.Time { return horizons[pos] })
			want := 0
			for pos, h := range horizons {
				want += ref.purgeBefore(pos, h)
				floor[pos] = max(floor[pos], h)
			}
			if got != want {
				return fmt.Errorf("step %d: purged %d, reference purged %d", i, got, want)
			}
		}
		if err := sameAsRef(a, ref); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	return nil
}

// TestRIPInvariantProperty: random inserts and purges leave the value stacks
// equal to the pointer reference, every derived RIP naming the instance the
// reference's RIP points at and every LastFixups equal to the run the
// reference repointed.
func TestRIPInvariantProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+int(size))
		rng.Read(data)
		if err := matchesReference(data); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzStacksMatchReference is TestRIPInvariantProperty under the fuzzer:
// go test ./internal/ais -run '^$' -fuzz '^FuzzStacksMatchReference$'.
func FuzzStacksMatchReference(f *testing.F) {
	f.Add([]byte{2, 1, 3, 5, 0, 9, 1, 2, 6, 0, 4, 4, 4, 1, 7})
	f.Add([]byte{1, 5, 0, 1, 5, 0, 1, 5, 1, 0, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := matchesReference(data); err != nil {
			t.Fatal(err)
		}
	})
}
