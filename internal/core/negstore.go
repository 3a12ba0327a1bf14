package core

import (
	"sort"

	"oostream/internal/event"
)

// negStore buffers negative events (those passing the negation's local
// predicates) sorted by (timestamp, sequence), supporting out-of-order
// insertion, exclusive-range gap queries, and prefix purging.
type negStore struct {
	items []event.Event
}

func (s *negStore) len() int { return len(s.items) }

// insert places e at its sorted position.
func (s *negStore) insert(e event.Event) {
	idx := sort.Search(len(s.items), func(i int) bool {
		return e.Before(s.items[i])
	})
	s.items = append(s.items, event.Event{})
	copy(s.items[idx+1:], s.items[idx:])
	s.items[idx] = e
}

// firstAfter returns the first index whose event has TS > lo.
func (s *negStore) firstAfter(lo event.Time) int {
	return sort.Search(len(s.items), func(i int) bool {
		return s.items[i].TS > lo
	})
}

// purgeBefore drops every event with TS < horizon, returning the count.
func (s *negStore) purgeBefore(horizon event.Time) int {
	cut := sort.Search(len(s.items), func(i int) bool {
		return s.items[i].TS >= horizon
	})
	if cut == 0 {
		return 0
	}
	n := copy(s.items, s.items[cut:])
	for i := n; i < len(s.items); i++ {
		s.items[i] = event.Event{}
	}
	s.items = s.items[:n]
	return cut
}
