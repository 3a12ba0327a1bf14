package ais

import (
	"math/rand"
	"slices"
	"testing"

	"oostream/internal/event"
)

// TestDueAgainstSortedSlice drives a Due and a plainly sorted reference with
// the same random adds (in order, late, equal timestamps) and pops (horizons
// that move both ways): every pop hands over the same items in the same
// order, what is left is the same, and Filed reports it entry for entry.
func TestDueAgainstSortedSlice(t *testing.T) {
	type entry struct {
		ts event.Time
		id int
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var d Due[int]
		var ref []entry
		clock := event.Time(0)
		for step, id := 0, 0; step < 2000; step++ {
			if rng.Intn(3) > 0 {
				clock += event.Time(rng.Intn(3))
				e := entry{clock - event.Time(rng.Intn(8)*rng.Intn(2)), id}
				id++
				d.Insert(e.ts, e.id)
				// After the entries with the same or an earlier timestamp.
				at, _ := slices.BinarySearchFunc(ref, e.ts+1, func(x entry, ts event.Time) int { return int(x.ts - ts) })
				ref = slices.Insert(ref, at, e)
				continue
			}
			horizon := clock - event.Time(rng.Intn(12))
			var got, want []int
			d.PopBefore(horizon, func(id int) { got = append(got, id) })
			for len(ref) > 0 && ref[0].ts < horizon {
				want = append(want, ref[0].id)
				ref = ref[1:]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: popped %v below %d, want %v", seed, step, got, horizon, want)
			}
			if d.Len() != len(ref) {
				t.Fatalf("seed %d step %d: %d entries left, want %d", seed, step, d.Len(), len(ref))
			}
		}
		filed, err := d.Filed()
		if err != nil || len(filed) != len(ref) {
			t.Fatalf("seed %d: Filed() = %d items, %v; want %d", seed, len(filed), err, len(ref))
		}
		var left, want []int
		d.PopThrough(clock, func(id int) { left = append(left, id) })
		for _, e := range ref {
			want = append(want, e.id)
			if !slices.Equal(filed[e.id], []event.Time{e.ts}) {
				t.Fatalf("seed %d: item %d filed under %v, want %d", seed, e.id, filed[e.id], e.ts)
			}
		}
		if !slices.Equal(left, want) {
			t.Fatalf("seed %d: left %v, want %v", seed, left, want)
		}
	}
}

// TestDueReusesPoppedPrefix: an order whose population is steady stops
// allocating — the slots a pass pops are the ones later adds fill.
func TestDueReusesPoppedPrefix(t *testing.T) {
	const alive = 1000
	var d Due[int]
	next := 0
	round := func() {
		for i := 0; i < 64; i++ {
			d.Insert(event.Time(next), next)
			next++
		}
		d.PopBefore(event.Time(next-alive), func(int) {})
	}
	for next < 100*alive {
		round()
	}
	if d.Len() != alive {
		t.Fatalf("%d entries alive, want %d", d.Len(), alive)
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Errorf("steady add and pop allocated %.2f times a round", allocs)
	}
}
