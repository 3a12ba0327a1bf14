package plan

import (
	"slices"

	"oostream/internal/event"
)

// Block sizes: the first block an engine carves holds firstMatches matches
// (firstEvents events), each next one twice the last, up to maxMatches
// (maxEvents). An engine that rarely emits holds a few hundred bytes; one
// that emits on every call reaches the cap after a handful of blocks.
// EXPERIMENTS.md E51 measured caps of 16, 32 and 64 matches. A block takes
// the whole size class its allocation falls in: 65 matches (6.6 KiB) and
// 292 events (16 KiB) at the cap.
const (
	firstMatches = 4
	maxMatches   = 64
	firstEvents  = 4 * firstMatches
	maxEvents    = 4 * maxMatches
)

// Blocks carves the matches an engine's calls return, and the events those
// matches hold, from append-only blocks. A call opens its output (Open),
// appends to it (Append) and closes it (Close), which hands out
// block[start:end:end]; Events copies a binding into
// events[l:l+n:l+n]. A slot handed out is never written again, and each
// slice handed out has its capacity at its length, so a caller that keeps
// it, or appends to it, never reaches a neighbour's. A kept match keeps its
// match block and its event block alive, no more than the cap's unless one
// call returned more than a block holds. The zero Blocks is ready to use.
type Blocks struct {
	// matches is the current match block: its length is the slots handed
	// out, and the open call's output occupies the slots after them.
	matches []Match
	// events is the current event block, its length the slots handed out.
	events []event.Event
	// Reuse lends each call's output instead of handing it out: every call
	// is carved from the start of the same blocks, which grow past the cap
	// to the largest call's output and are then never allocated again. For
	// a caller that reads each call's output before the next call and keeps
	// none of it.
	Reuse bool
}

// Open returns the empty output of a call, the free tail of the current
// block (all of it, reused). Append to it only with Append.
func (b *Blocks) Open() []Match {
	if b.Reuse {
		b.matches, b.events = b.matches[:0], b.events[:0]
	}
	l := len(b.matches)
	return b.matches[l:l]
}

// grown is the size of the block after one of size n: twice as large, at
// least first and, unless reused, at most limit.
func (b *Blocks) grown(n, first, limit int) int {
	if b.Reuse {
		return max(2*n, first)
	}
	return min(max(2*n, first), limit)
}

// Append appends m to out, the open call's output, moving the output to a
// new block when the current one is full. Slots a moved output leaves
// behind were never handed out; they are cleared so they pin nothing.
func (b *Blocks) Append(out []Match, m Match) []Match {
	if len(out) == cap(out) {
		size := b.grown(cap(b.matches), firstMatches, maxMatches)
		blk := slices.Grow([]Match(nil), max(size, 2*len(out)))[:len(out)]
		copy(blk, out)
		clear(out)
		b.matches, out = blk[:0], blk
	}
	return append(out, m)
}

// Close hands out the open call's output: nil when it is empty, else its
// slots, whose capacity ends where they do.
func (b *Blocks) Close(out []Match) []Match {
	n := len(out)
	if n == 0 {
		return nil
	}
	if l := len(b.matches); l+n <= cap(b.matches) && &b.matches[l : l+n][0] == &out[0] {
		b.matches = b.matches[:l+n]
	}
	return out[:n:n]
}

// Events returns a copy of src carved from the current event block, its
// capacity at its length.
func (b *Blocks) Events(src []event.Event) []event.Event {
	n := len(src)
	if cap(b.events)-len(b.events) < n {
		size := b.grown(cap(b.events), firstEvents, maxEvents)
		b.events = slices.Grow([]event.Event(nil), max(size, n))
	}
	l := len(b.events)
	b.events = append(b.events, src...)
	return b.events[l : l+n : l+n]
}
