package ais

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"oostream/internal/event"
	"oostream/internal/plan"
)

func TestKeyedStacksRoutingAndSize(t *testing.T) {
	k := NewKeyed(2)
	if k.Positions() != 2 || k.Groups() != 0 || k.Size() != 0 {
		t.Fatalf("fresh keyed stacks: %d positions, %d groups, size %d", k.Positions(), k.Groups(), k.Size())
	}
	a := event.Int(1)
	b := event.Int(2)
	k.Insert(a, 0, event.Event{Type: "A", TS: 10, Seq: 1})
	k.Insert(a, 1, event.Event{Type: "B", TS: 20, Seq: 2})
	k.Insert(b, 0, event.Event{Type: "A", TS: 15, Seq: 3})
	if k.Groups() != 2 || k.Size() != 3 {
		t.Fatalf("groups=%d size=%d, want 2/3", k.Groups(), k.Size())
	}
	// Routing: each group only sees its own key's instances.
	if got := k.Group(a).Size(); got != 2 {
		t.Fatalf("group a size = %d, want 2", got)
	}
	if got := k.Group(b).Size(); got != 1 {
		t.Fatalf("group b size = %d, want 1", got)
	}
	if k.Group(event.Int(99)) != nil {
		t.Fatal("unknown key should have no group")
	}
	// RIP stays group-local: b's stack 0 instance (TS 15) must not become the
	// predecessor of a's stack 1 instance (TS 20).
	if rip := derivedRIP(k.Group(a), 1, 20); rip == nil || rip.Seq != 1 {
		t.Fatalf("group a RIP = %+v, want seq 1", rip)
	}
}

// TestKeyedSteadyStateAllocFree: near-singleton keys — each lives for three
// events, as on RFID traffic — cost no allocation once warm. An emptied group
// waits on the free list, its arrays at capacity, for the next new key, and
// the map, the expiry orders and the stacks reuse what the purge vacated.
func TestKeyedSteadyStateAllocFree(t *testing.T) {
	const alive = 1000
	k := NewKeyed(3)
	var ts event.Time
	round := func() {
		for i := 0; i < 64; i++ {
			ts++
			k.Insert(event.Int(int64(ts/3)), int(ts%3), event.Event{Type: "A", TS: ts, Seq: event.Seq(ts)})
		}
		k.PurgeBefore(func(int) event.Time { return ts - alive + 1 })
	}
	for ts < 100*alive {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Errorf("64 inserts and a purge allocated %.2f times", allocs)
	}
	if k.Size() != alive || k.Groups() > alive/3+1 {
		t.Errorf("%d instances in %d groups, want %d in about %d", k.Size(), k.Groups(), alive, alive/3)
	}
	if err := k.CheckDue(); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedStacksPurgeDropsEmptyGroups(t *testing.T) {
	k := NewKeyed(1)
	for i := 0; i < 5; i++ {
		k.Insert(event.Int(int64(i)), 0, event.Event{Type: "A", TS: event.Time(i), Seq: event.Seq(i + 1)})
	}
	k.Insert(event.Int(0), 0, event.Event{Type: "A", TS: 100, Seq: 10})
	// Purge everything below TS 50: groups 1..4 empty out and are dropped;
	// group 0 keeps its late instance.
	purged := k.PurgeBefore(func(int) event.Time { return 50 })
	if purged != 5 {
		t.Fatalf("purged %d, want 5", purged)
	}
	if k.Groups() != 1 || k.Size() != 1 {
		t.Fatalf("after purge: %d groups, size %d, want 1/1", k.Groups(), k.Size())
	}
	total := 0
	k.Range(func(_ event.Value, st *Stacks) { total += st.Size() })
	if total != k.Size() {
		t.Fatalf("incremental size %d != recomputed %d", k.Size(), total)
	}
	if err := k.CheckDue(); err != nil {
		t.Fatal(err)
	}
}

// scanKeyed is the purge KeyedStacks ran before it kept an expiry order:
// every pass walks every key group. It is the reference the order is held
// against.
type scanKeyed struct {
	n      int
	groups map[event.Value]*Stacks
	size   int
}

func (k *scanKeyed) Insert(key event.Value, pos int, e event.Event) {
	st, ok := k.groups[key]
	if !ok {
		st = New(k.n)
		k.groups[key] = st
	}
	k.size++
	st.Insert(pos, e)
}

func (k *scanKeyed) PurgeBefore(horizon func(pos int) event.Time) int {
	total := 0
	for key, st := range k.groups {
		total += st.PurgeBefore(horizon)
		if st.Size() == 0 {
			delete(k.groups, key)
		}
	}
	k.size -= total
	return total
}

// sameGroups reports the first difference between the reference's groups and
// the keyed stacks': group set, and per group and position the surviving
// instances by Seq.
func sameGroups(ref *scanKeyed, k *KeyedStacks) error {
	if len(ref.groups) != k.Groups() {
		return fmt.Errorf("%d groups, reference has %d", k.Groups(), len(ref.groups))
	}
	for key, want := range ref.groups {
		got := k.Group(key)
		if got == nil {
			return fmt.Errorf("group %s missing", key)
		}
		for pos := 0; pos < ref.n; pos++ {
			w, g := want.Stack(pos), got.Stack(pos)
			if w.Len() != g.Len() {
				return fmt.Errorf("group %s position %d: %s, reference %s", key, pos, g, w)
			}
			for i := 0; i < w.Len(); i++ {
				if w.At(i).Seq != g.At(i).Seq {
					return fmt.Errorf("group %s position %d index %d: seq %d, reference %d", key, pos, i, g.At(i).Seq, w.At(i).Seq)
				}
			}
		}
	}
	return nil
}

// TestDuePurgeMatchesFullScan drives the keyed stacks and the walk-every-group
// reference with the same seeded inserts and purge passes — few hot keys and
// many cold ones, late inserts, timestamps that collide with the horizons,
// horizons that move backwards and passes with nothing due — and wants the
// same purged count per pass, the same survivors per group, the same group
// set and the same Size, with the order's invariant holding after every pass.
func TestDuePurgeMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		keys := []int{1, 4, 50, 2000}[rng.Intn(4)]
		k := NewKeyed(n)
		ref := &scanKeyed{n: n, groups: make(map[event.Value]*Stacks)}
		clock := event.Time(0)
		horizons := make([]event.Time, n)
		for step, seq := 0, event.Seq(1); step < 400; step++ {
			for i := rng.Intn(12); i > 0; i-- {
				clock += event.Time(rng.Intn(3))
				e := event.Event{Type: "A", TS: clock - event.Time(rng.Intn(20)), Seq: seq}
				seq++
				key, pos := event.Int(int64(rng.Intn(keys))), rng.Intn(n)
				k.Insert(key, pos, e)
				ref.Insert(key, pos, e)
			}
			if err := k.CheckDue(); err != nil {
				t.Fatalf("seed %d step %d after inserts: %v", seed, step, err)
			}
			for pos := range horizons {
				switch rng.Intn(4) {
				case 0: // nothing new falls due, or the horizon moves backwards
					horizons[pos] -= event.Time(rng.Intn(5))
				default:
					horizons[pos] = clock - event.Time(rng.Intn(30))
				}
			}
			horizon := func(pos int) event.Time { return horizons[pos] }
			got, want := k.PurgeBefore(horizon), ref.PurgeBefore(horizon)
			if got != want {
				t.Fatalf("seed %d step %d: purged %d, full scan purged %d", seed, step, got, want)
			}
			if k.Size() != ref.size {
				t.Fatalf("seed %d step %d: Size %d, full scan %d", seed, step, k.Size(), ref.size)
			}
			if err := sameGroups(ref, k); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if err := k.CheckDue(); err != nil {
				t.Fatalf("seed %d step %d after purge: %v", seed, step, err)
			}
		}
	}
}

// TestPurgeEvaluatesHorizonOncePerPosition: a pass asks for each position's
// horizon once however many groups are alive (the walk asked once per group
// and position), and with nothing due it changes nothing.
func TestPurgeEvaluatesHorizonOncePerPosition(t *testing.T) {
	const n, groups = 3, 10000
	k := NewKeyed(n)
	for i := 0; i < groups; i++ {
		k.Insert(event.Int(int64(i)), i%n, event.Event{Type: "A", TS: event.Time(1000 + i), Seq: event.Seq(i + 1)})
	}
	calls := 0
	purged := k.PurgeBefore(func(int) event.Time { calls++; return 1000 })
	if calls != n {
		t.Errorf("horizon evaluated %d times in one pass over %d groups, want %d", calls, groups, n)
	}
	if purged != 0 || k.Groups() != groups || k.Size() != groups {
		t.Errorf("nothing was due: purged %d, %d groups, size %d", purged, k.Groups(), k.Size())
	}
}

// TestPurgeVisitsHotGroupOnce: a group with many entries due at one position
// is purged by the first of them; the rest find it done.
func TestPurgeVisitsHotGroupOnce(t *testing.T) {
	k := NewKeyed(1)
	hot := event.Int(7)
	for i := 0; i < 500; i++ {
		k.Insert(hot, 0, event.Event{Type: "A", TS: event.Time(i), Seq: event.Seq(i + 1)})
	}
	k.Insert(event.Int(8), 0, event.Event{Type: "A", TS: 250, Seq: 501})
	if purged := k.PurgeBefore(func(int) event.Time { return 400 }); purged != 401 {
		t.Fatalf("purged %d, want 401", purged)
	}
	if k.Groups() != 1 || k.Group(hot).Stack(0).Len() != 100 {
		t.Fatalf("after purge: %d groups, hot group %s", k.Groups(), k.Group(hot).Stack(0))
	}
	if err := k.CheckDue(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKeyedPurge holds the number of live groups fixed (each keeps one
// instance at position 1 that never falls due) and, per op, inserts 16
// instances at position 0 into 16 of them and runs the pass that purges
// exactly those. ns/pass times the pass alone (the inserts pay a map lookup
// that misses more as the map grows) and must not grow with the group count.
func BenchmarkKeyedPurge(b *testing.B) {
	const due = 16
	for _, groups := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			k := NewKeyed(2)
			for i := 0; i < groups; i++ {
				k.Insert(event.Int(int64(i)), 1, event.Event{Type: "B", TS: 1 << 40, Seq: event.Seq(i + 1)})
			}
			var now event.Time
			horizon := func(pos int) event.Time {
				if pos == 0 {
					return now + 1
				}
				return 0
			}
			var inPass time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = event.Time(i)
				for j := 0; j < due; j++ {
					k.Insert(event.Int(int64((i*due+j)%groups)), 0, event.Event{Type: "A", TS: now})
				}
				start := time.Now()
				purged := k.PurgeBefore(horizon)
				inPass += time.Since(start)
				if purged != due {
					b.Fatalf("purged %d, want %d", purged, due)
				}
			}
			b.ReportMetric(float64(inPass.Nanoseconds())/float64(b.N), "ns/pass")
		})
	}
}

// TestColumnsFollowTheirInstances: a stack at a position construction reads
// loads its operands once per insert, and its columns move with its items
// through late inserts, purges that empty groups onto the free list and the
// reuse of those groups by new keys, with a stack per position and with
// two positions sharing one. After every step each entry equals its
// instance's load again (CheckColumns), errors and NaN included; once
// warm, inserting numbers and purging allocates nothing.
func TestColumnsFollowTheirInstances(t *testing.T) {
	p, err := plan.ParseAndCompile("PATTERN SEQ(A a, B b, C c) WHERE b.v < a.v - 3 AND c.v >= a.v WITHIN 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := p.CrossView(nil).Operands()
	if len(ops[0]) != 2 || len(ops[1]) != 1 || len(ops[2]) != 1 {
		t.Fatalf("operands per slot %d, %d, %d, want 2, 1, 1", len(ops[0]), len(ops[1]), len(ops[2]))
	}
	t.Run("own", func(t *testing.T) { columnsFollow(t, NewKeyedClasses(nil, ops)) })
	// Positions 0 and 2 share a stack, which loads a.v - 3 and, once for
	// both positions, a.v = c.v.
	t.Run("shared", func(t *testing.T) {
		k := NewKeyedClasses([]int{0, 1, 0}, ops)
		if got := len(k.lay.ops[0]); got != 2 {
			t.Fatalf("%d columns for the shared stack, want 2", got)
		}
		columnsFollow(t, k)
	})
	if err := NewKeyed(3).CheckColumns(); err != nil {
		t.Fatalf("stacks without operands: %v", err)
	}
}

// columnsFollow runs TestColumnsFollowTheirInstances on k, whose positions
// load the operands of its plan.
func columnsFollow(t *testing.T, k *KeyedStacks) {
	rng := rand.New(rand.NewSource(1))
	lists := []event.AttrList{nil}
	for _, v := range []event.Value{event.Int(4), event.Float(2.5), event.Float(math.NaN()), event.Str("x")} {
		lists = append(lists, event.AttrList{{Name: "v", Value: v}})
	}
	var clock event.Time
	step := func() {
		for i := 0; i < 16; i++ {
			clock += event.Time(rng.Intn(3))
			ts := clock - event.Time(rng.Intn(20))
			e := event.Event{Type: "A", TS: ts, Seq: event.Seq(clock), Attrs: lists[rng.Intn(len(lists))]}
			// Keys live about 40 time units, so purges empty groups and
			// new keys take them back from the free list.
			k.Insert(event.Int(int64(ts/40)), rng.Intn(3), e)
		}
		k.PurgeBefore(func(int) event.Time { return clock - 30 })
	}
	reused := 0
	for i := 0; i < 400; i++ {
		free := len(k.free)
		step()
		if len(k.free) < free {
			reused++
		}
		if err := k.CheckColumns(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := k.CheckDue(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if reused == 0 {
		t.Fatal("no group came back from the free list: the reuse path was not exercised")
	}
	// A load that errs allocates its error; the numbers load in place.
	lists = lists[1:4]
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("16 inserts of numbers and a purge allocated %.2f times", allocs)
	}
}

// TestStackSize pins the layout: a stack is its items alone, so a negative
// store pays nothing for columns, and a key group's stacks hold them behind
// one pointer, nil when construction reads no operand.
func TestStackSize(t *testing.T) {
	if got := unsafe.Sizeof(Stack{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Stack{}) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(Stacks{}); got > 40 {
		t.Errorf("unsafe.Sizeof(Stacks{}) = %d, want at most 40", got)
	}
	if _, st := NewKeyed(2).Insert(event.Int(1), 0, event.Event{TS: 1}); st.cols != nil {
		t.Error("a key group without operands holds columns")
	}
}

// TestSharedStackMatchesOwnStacks: three positions that admit the same
// events, held once in a shared stack and once in a stack each, over keyed
// disordered inserts and purges that keep the final position on a later
// horizon. Each position's fix-up count is the same either way, the shared
// stack holds what the first two positions' stacks hold, the final
// position's stack is a suffix of it, and sizes count the shared instances
// once. The positions read the V-shape's operands: b.v and c.v share one
// column of the shared stack, and each position's columns load what its own
// stack's do, a missing v included.
func TestSharedStackMatchesOwnStacks(t *testing.T) {
	const n, disorder, window = 3, 12, 30
	class := Classes(n, func(p, q int) bool { return true })
	if len(class) != n || class[1] != 0 || class[2] != 0 {
		t.Fatalf("classes %v, want [0 0 0]", class)
	}
	if c := Classes(n, func(p, q int) bool { return false }); c != nil {
		t.Fatalf("classes %v of positions that share nothing, want nil", c)
	}
	p, err := plan.ParseAndCompile("PATTERN SEQ(T a, T b, T c) WHERE b.v < a.v - 3 AND c.v > a.v + 3 WITHIN 30", nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := p.CrossView(nil).Operands()
	own, shared := NewKeyedClasses(nil, ops), NewKeyedClasses(class, ops)
	if got := len(shared.lay.ops[0]); got != 3 {
		t.Fatalf("%d columns for the shared stack, want 3: a.v - 3, a.v + 3, and b.v = c.v", got)
	}
	rng := rand.New(rand.NewSource(7))
	var clock event.Time
	for i := 1; i <= 2000; i++ {
		clock += event.Time(rng.Intn(3))
		// Admitted events are at or above the safe clock, clock − disorder.
		e := event.Event{Type: "T", TS: clock - event.Time(rng.Intn(disorder+1)), Seq: event.Seq(i)}
		if i%7 != 0 {
			e.Attrs = event.AttrList{{Name: event.Intern("v"), Value: event.Float(float64(rng.Intn(20)) / 2)}}
		}
		key := event.Int(int64(rng.Intn(4)))
		idx, st := shared.Insert(key, 0, e)
		for pos := 0; pos < n; pos++ {
			_, ost := own.Insert(key, pos, e)
			fix := st.LastFixups()
			if pos > 0 {
				fix = st.Fixups(pos, idx)
			}
			if fix != ost.LastFixups() {
				t.Fatalf("event %d position %d: %d fix-ups shared, %d on its own stack", i, pos, fix, ost.LastFixups())
			}
		}
		if i%8 == 0 {
			horizon := func(pos int) event.Time {
				if pos == n-1 {
					return clock - disorder
				}
				return clock - disorder - window
			}
			own.PurgeBefore(horizon)
			shared.PurgeBefore(horizon)
		}
		if err := shared.CheckDue(); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if err := shared.CheckColumns(); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	ownSize := 0
	own.Range(func(key event.Value, ost *Stacks) {
		st := shared.Group(key)
		for pos := 0; pos < n; pos++ {
			s, o := st.Stack(pos), ost.Stack(pos)
			skip := s.Len() - o.Len()
			if skip < 0 || (pos < n-1 && skip != 0) {
				t.Fatalf("key %s position %d: %d shared instances, %d on its own stack", key, pos, s.Len(), o.Len())
			}
			sc, oc := st.Columns(pos, nil), ost.Columns(pos, nil)
			if len(sc) != len(oc) {
				t.Fatalf("position %d: %d columns shared, %d on its own stack", pos, len(sc), len(oc))
			}
			for i := 0; i < o.Len(); i++ {
				if s.At(skip+i).Seq != o.At(i).Seq {
					t.Fatalf("key %s position %d: instance %d differs", key, pos, i)
				}
				for k := range oc {
					if !sc[k][skip+i].Same(oc[k][i]) {
						t.Fatalf("key %s position %d: operand %d of instance %d differs", key, pos, k, i)
					}
				}
			}
		}
		ownSize += ost.Stack(0).Len()
	})
	if shared.Size() != ownSize || shared.Groups() != own.Groups() {
		t.Fatalf("shared: %d instances in %d groups; own stacks: %d at the first position in %d groups", shared.Size(), shared.Groups(), ownSize, own.Groups())
	}
}
