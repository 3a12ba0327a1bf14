package queue

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oostream/internal/event"
)

// item is held until ts. Items due together leave by rank where the queue
// has a Tie, and in insertion order (id, which the queue never reads) among
// equal ranks or without one. The padding makes it the size of an
// event.Event.
type item struct {
	ts   event.Time
	rank int
	id   int
	pad  [4]uint64
}

func byRank(a, b item) bool { return a.rank < b.rank }

// refHeap is the structure the queue replaced, kept as the reference it is
// compared and timed against: a container/heap on (ts, rank, id), the id
// standing in for the insertion order a heap does not keep by itself.
type refHeap []item

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].ts != h[j].ts {
		return h[i].ts < h[j].ts
	}
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].id < h[j].id
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(item)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	out := old[n-1]
	*h = old[:n-1]
	return out
}

// popWhile pops the reference while its minimum satisfies due.
func (h *refHeap) popWhile(due func(item) bool) []int {
	var ids []int
	for h.Len() > 0 && due((*h)[0]) {
		ids = append(ids, heap.Pop(h).(item).id)
	}
	return ids
}

// drive interprets data as a sequence of operations on a queue and the
// reference heap, failing on the first disagreement: two bytes an operation,
// the first choosing it (and, above its low three bits, an inserted item's
// rank) and the second its argument.
func drive(t *testing.T, data []byte) {
	t.Helper()
	q := Queue[item]{Tie: byRank}
	var ref refHeap
	clock := event.Time(0)
	nextID := 0
	for step := 0; step+1 < len(data); step += 2 {
		op, arg := data[step], event.Time(data[step+1])
		var got, want []int
		switch op % 8 {
		case 0, 1, 2: // insert at or ahead of the clock
			clock += arg % 4
			fallthrough
		case 3: // insert late by up to 255
			x := item{ts: clock, rank: int(op>>3) % 3, id: nextID}
			if op%8 == 3 {
				x.ts -= arg
			}
			nextID++
			q.Insert(x.ts, x)
			heap.Push(&ref, x)
		case 4:
			bound := clock - arg
			q.PopThrough(bound, func(x item) { got = append(got, x.id) })
			want = ref.popWhile(func(x item) bool { return x.ts <= bound })
		case 5:
			bound := clock - arg
			q.PopBefore(bound, func(x item) { got = append(got, x.id) })
			want = ref.popWhile(func(x item) bool { return x.ts < bound })
		case 6: // a prefix of arg items
			for n := int(arg); n > 0 && q.Len() > 0; n-- {
				x, _ := q.Pop()
				got = append(got, x.id)
			}
			n := int(arg)
			want = ref.popWhile(func(item) bool { n--; return n >= 0 })
		case 7:
			if x, due, ok := q.Min(); ok != (ref.Len() > 0) || ok && (x.id != ref[0].id || due != x.ts) {
				t.Fatalf("step %d: Min() = %v, %d, %v with %d in the reference", step, x, due, ok, ref.Len())
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d op %d arg %d: popped %v, the heap %v", step, op%8, arg, got, want)
		}
		if q.Len() != ref.Len() {
			t.Fatalf("step %d: %d held, the heap holds %d", step, q.Len(), ref.Len())
		}
		if err := q.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// What is left leaves in the same order, and Each saw it that way.
	var each []int
	q.Each(func(_ event.Time, x item) { each = append(each, x.id) })
	var got []int
	for x, ok := q.Pop(); ok; x, ok = q.Pop() {
		got = append(got, x.id)
	}
	want := ref.popWhile(func(item) bool { return true })
	if !slices.Equal(got, want) || !slices.Equal(each, want) {
		t.Fatalf("left %v, Each %v, the heap %v", got, each, want)
	}
	if len(q.chunks) != 0 || q.head != 0 {
		t.Fatalf("emptied queue keeps %d chunks, head %d", len(q.chunks), q.head)
	}
}

// fuzzSeeds are operation sequences that reach each part of the structure.
func fuzzSeeds() map[string][]byte {
	rep := func(n int, ops ...byte) []byte { return bytes.Repeat(ops, n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4000)
	rng.Read(random)
	return map[string][]byte{
		"in order, released as it goes": rep(600, 0, 1, 4, 50),
		// 400 appends then 300 splices into one spot: full chunks split.
		"splits": cat(rep(400, 0, 1), rep(300, 3, 200), rep(50, 3, 7, 5, 100)),
		// Equal timestamps across chunk boundaries, in insertion order and
		// (the op bytes 8 and 19 up) by rank, released exclusively.
		"ties": cat(rep(500, 0, 0), rep(200, 3, 0, 3, 1), rep(100, 8, 0, 19, 0, 3, 0), rep(3, 5, 0, 4, 1, 4, 0)),
		// Pops that leave a popped prefix in the first chunk, then late
		// inserts into that chunk (the slide) and whole chunks reclaimed.
		"head reclaim":          cat(rep(300, 0, 1), rep(1, 6, 100), rep(200, 3, 250), rep(3, 6, 130), rep(100, 3, 255)),
		"emptied then refilled": cat(rep(300, 0, 2), rep(2, 6, 255), rep(300, 3, 9, 0, 1), rep(3, 6, 255), rep(10, 0, 1, 7, 0)),
		"random":                random,
	}
}

func TestQueueMatchesHeap(t *testing.T) {
	for name, data := range fuzzSeeds() {
		t.Run(name, func(t *testing.T) { drive(t, data) })
	}
}

// FuzzQueueMatchesHeap: any sequence of inserts, inclusive and exclusive
// releases and prefix pops leaves the queue and a binary heap on (timestamp,
// insertion order) in agreement, with Check holding after every operation.
func FuzzQueueMatchesHeap(f *testing.F) {
	for _, data := range fuzzSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { drive(t, data) })
}

// TestCheckSeesDisorder: Check reports an item held behind a later one.
func TestCheckSeesDisorder(t *testing.T) {
	var q Queue[item]
	for ts := event.Time(0); ts < 300; ts++ {
		q.Insert(ts, item{ts: ts})
	}
	if err := q.Check(); err != nil {
		t.Fatal(err)
	}
	q.chunks[1][5].due = 0
	if err := q.Check(); err == nil {
		t.Error("Check passed a queue with an item out of order")
	}
}

// TestSteadyQueueDoesNotAllocate: a queue whose population is steady stops
// allocating (the chunk a release empties is the one later inserts fill) and
// keeps no more chunks than what is alive needs.
func TestSteadyQueueDoesNotAllocate(t *testing.T) {
	const alive = 1000
	var q Queue[item]
	next := 0
	round := func() {
		for i := 0; i < 64; i++ {
			q.Insert(event.Time(next), item{})
			next++
		}
		q.PopBefore(event.Time(next-alive), func(item) {})
	}
	for next < 100*alive {
		round()
	}
	if q.Len() != alive {
		t.Fatalf("%d items alive, want %d", q.Len(), alive)
	}
	if max := alive/chunkLen + 2; len(q.chunks) > max {
		t.Errorf("%d chunks for %d live items, want at most %d", len(q.chunks), alive, max)
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Errorf("steady insert and release allocated %.2f times a round", allocs)
	}
}

// arrival is one shape of the bounded disorder every holder sees; ts returns
// the timestamp of the i-th arrival under disorder bound k.
type arrival struct {
	name string
	ts   func(i, k int, rng *rand.Rand) event.Time
}

var arrivals = []arrival{
	{"in-order", func(i, k int, _ *rand.Rand) event.Time { return event.Time(i) }},
	{"late-20pct", func(i, k int, rng *rand.Rand) event.Time {
		if rng.Intn(5) == 0 {
			return event.Time(i - rng.Intn(k+1))
		}
		return event.Time(i)
	}},
	// Every block of k arrivals reversed: each insert lands ahead of all of
	// its block, the worst placement the bound allows.
	{"reversed", func(i, k int, _ *rand.Rand) event.Time { return event.Time(i - i%k + k - 1 - i%k) }},
}

// slotItem is the 16-byte, pointer-free shape of the K-slack buffer's
// entries (a sequence number and an arena index), beside item's 56 bytes,
// the size of an event.
type slotItem struct {
	rank uint64
	id   uint32
}

// BenchmarkQueue times one insert and the release it triggers (everything
// more than the bound behind the newest timestamp, as the K-slack buffer
// does) with about `resident` items held, the queue and the heap it replaced
// side by side, and the queue again over 16-byte items (`queue-16B`): what
// a late splice and a release move is the entry size.
func BenchmarkQueue(b *testing.B) {
	for _, shape := range arrivals {
		for _, resident := range []int{1_000, 10_000, 100_000} {
			// A whole number of blocks, so the stream wraps on a block boundary.
			stream := make([]item, resident*max(1, (1<<18)/resident))
			rng := rand.New(rand.NewSource(42))
			for i := range stream {
				stream[i] = item{ts: shape.ts(i, resident, rng), rank: i, id: i}
			}
			name := fmt.Sprintf("%s/resident=%d", shape.name, resident)
			b.Run(name+"/queue", func(b *testing.B) {
				timeQueue(b, &Queue[item]{Tie: byRank}, stream, stream, resident)
			})
			b.Run(name+"/queue-16B", func(b *testing.B) {
				slots := make([]slotItem, len(stream))
				for i, x := range stream {
					slots[i] = slotItem{uint64(x.rank), uint32(x.id)}
				}
				timeQueue(b, &Queue[slotItem]{Tie: func(a, b slotItem) bool { return a.rank < b.rank }}, stream, slots, resident)
			})
			b.Run(name+"/heap", func(b *testing.B) {
				b.ReportAllocs()
				var h refHeap
				maxTS := event.Time(0)
				for i := 0; i < b.N; i++ {
					x := stream[i%len(stream)]
					x.ts += event.Time(i / len(stream) * len(stream))
					heap.Push(&h, x)
					maxTS = max(maxTS, x.ts)
					for h.Len() > 0 && h[0].ts <= maxTS-event.Time(resident) {
						heap.Pop(&h)
					}
				}
			})
		}
	}
}

// timeQueue is BenchmarkQueue's loop over q: arrival i holds items[i], due
// at stream[i].ts.
func timeQueue[T any](b *testing.B, q *Queue[T], stream []item, items []T, resident int) {
	b.ReportAllocs()
	maxTS := event.Time(0)
	for i := 0; i < b.N; i++ {
		ts := stream[i%len(stream)].ts + event.Time(i/len(stream)*len(stream))
		q.Insert(ts, items[i%len(items)])
		maxTS = max(maxTS, ts)
		q.PopThrough(maxTS-event.Time(resident), func(T) {})
	}
}
