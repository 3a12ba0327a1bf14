package main

import (
	"sort"
	"time"
)

// The machines this benchmark runs on are shared, and what the neighbours
// do changes how fast they run the same code by tens of percent, in spells
// that last from a second to several minutes: ten runs of one trace gave
// fastest passes anywhere between 29 and 62 kev/s. No statistic over the
// passes of a run survives a spell longer than the run. What does is
// measuring the machine's speed next to every measurement: the driver times
// a fixed kernel before and after each pass, and reports every duration as
// it would have been at the kernel's nominal speed. A spell that made
// passes 35 % slower moved the scaled figure by 2 %.
//
// The kernel uses nothing of the library, so that no change to the library
// can move it: it allocates small nodes and byte slices, chains them through
// a map, and sorts a few keys, which is roughly what decoding and matching
// events does to a processor's caches and to the collector. It must not be
// edited together with a change that claims a gain.

// referenceNominal is what the kernel takes on an undisturbed two-CPU 2.1
// GHz Xeon virtual machine, where the benchmark was defined. On that machine
// scaled figures are the true ones; elsewhere they are figures at that
// machine's speed.
const referenceNominal = 35 * time.Millisecond

type refNode struct {
	key     uint64
	next    *refNode
	payload []byte
}

// referenceSink keeps the kernel's results alive.
var referenceSink uint64

// refTime is how long one run of the kernel took, on the clock and on the
// processor. Durations on the clock are scaled by the first, processor time
// by the second: when the disturbance is a neighbour slowing the machine
// both grow alike, and when it is another process taking turns on the same
// processor only the first does, like the pass's own.
type refTime struct {
	wall, cpu time.Duration
}

// reference runs the kernel once.
func reference() refTime {
	cpu0 := cpuTime()
	start := time.Now()
	nodes := make(map[uint64]*refNode, 1024)
	keys := make([]uint64, 0, 64)
	x := uint64(1)
	for i := 0; i < 120000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 52
		n := &refNode{key: k, payload: make([]byte, 40), next: nodes[k]}
		if n.next != nil {
			n.next.next = nil
		}
		nodes[k] = n
		if i%32 == 0 {
			keys = append(keys[:0], k)
			for other := range nodes {
				if len(keys) == cap(keys) {
					break
				}
				keys = append(keys, other)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			referenceSink += keys[0]
		}
	}
	return refTime{wall: time.Since(start), cpu: cpuTime() - cpu0}
}

// scale is the factor that turns a duration measured between two runs of
// the kernel into the duration at nominal speed.
func scale(before, after time.Duration) float64 {
	return 2 * float64(referenceNominal) / float64(before+after)
}
