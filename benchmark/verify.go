package main

import (
	"fmt"
	"sort"

	"oostream"
	"oostream/internal/event"
	"oostream/internal/fiba"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

// checker watches the verify pass. It keeps the net result
// multiset of the verified prefix for the oracle comparison, and the
// event-time figures of the whole pass: per-result delay and peak state.
type checker struct {
	// limit and cut bound the verified prefix: generators number events in
	// timestamp order, so a match lies inside it when every event has
	// Seq <= limit; an aggregate window when it ends at or before cut.
	limit event.Seq
	cut   event.Time
	// slide is the aggregate's window step, 0 for pattern queries.
	slide event.Time

	net         map[string]int
	delays      []float64
	inserts     int
	retractions int
	peakState   int
}

func (c *checker) match(m oostream.Match, flushed bool) {
	switch {
	case m.Kind == oostream.Retract:
		c.retractions++
	case flushed:
		// What Flush releases was cut short by the end of the trace, not
		// delayed by the engine: it counts as a result but has no delay.
		c.inserts++
	default:
		c.inserts++
		// Result delay in event time: the engine clock (largest timestamp
		// seen) at emission minus the timestamp of the result's last
		// contributing event, which for an aggregate is its window end.
		c.delays = append(c.delays, float64(m.EmitClock-m.Last().TS))
	}
	if !c.inPrefix(m) {
		return
	}
	k := m.Key()
	if m.Kind == oostream.Retract {
		c.net[k]--
	} else {
		c.net[k]++
	}
	if c.net[k] == 0 {
		delete(c.net, k)
	}
}

func (c *checker) inPrefix(m oostream.Match) bool {
	if m.Agg != nil {
		return m.Agg.WindowEnd <= c.cut && sampledWindow(m.Agg.WindowEnd, c.slide)
	}
	for _, e := range m.Events {
		if e.Seq > c.limit {
			return false
		}
	}
	return true
}

func (c *checker) sample(en *oostream.Engine) {
	if n := en.StateSize(); n > c.peakState {
		c.peakState = n
	}
}

// extraStreams is how many more streams of the workload, generated from
// seeds derived from the run's, feed the event-time figures besides the
// trace itself. Results come in bursts (one late event completes many
// matches at once), so over a single stream the mean delay of the V-shape
// workload varied by a sixth from seed to seed; pooled over three it varies
// by a tenth.
const extraStreams = 2

// eventTime runs one more stream of the workload through a fresh engine, in
// memory and without rendering, and returns its result delays and peak
// state. Only counts in event time are taken from it, so skipping the trace
// file changes nothing it reports.
func eventTime(w workload, q *oostream.Query, seed int64) (*checker, error) {
	en, err := oostream.NewEngine(q, w.config())
	if err != nil {
		return nil, err
	}
	// With limit 0 and cut -1 nothing is inside the verified prefix.
	c := &checker{cut: -1, net: map[string]int{}}
	for i, e := range w.arrival(seed) {
		for _, m := range en.Process(e) {
			c.match(m, false)
		}
		if (i+1)%stateEvery == 0 {
			c.sample(en)
		}
	}
	for _, m := range en.Flush() {
		c.match(m, true)
	}
	return c, nil
}

// verdict is the outcome of the oracle comparison.
type verdict struct {
	attempted int
	failed    int
	// share is the part of the trace the oracle covered.
	share float64
	diff  string
	// sum is the checksum of what the verify pass printed.
	sum uint32
}

// loadSorted reads a trace back and orders it by (TS, Seq), which is the
// order its generator numbered it in.
func loadSorted(path string) ([]event.Event, error) {
	r, closeTrace, err := openTrace(path)
	if err != nil {
		return nil, err
	}
	defer closeTrace()
	events, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	event.SortByTime(events)
	return events, nil
}

// prefix returns how many events of the sorted stream the oracle takes:
// about want, extended so that events sharing a timestamp stay together.
func prefix(sorted []event.Event, want int) int {
	n := min(want, len(sorted))
	for n > 0 && n < len(sorted) && sorted[n].TS == sorted[n-1].TS {
		n++
	}
	return n
}

// check runs the workload once more, untimed, through the same replay loop
// and compares what it printed inside the verified prefix with the
// brute-force oracle over that prefix.
func check(w workload, p *plan.Plan, q *oostream.Query, path string) (*checker, verdict, error) {
	sorted, err := loadSorted(path)
	if err != nil {
		return nil, verdict{}, err
	}
	n := prefix(sorted, w.verify)
	if n == 0 {
		return nil, verdict{}, fmt.Errorf("%s: empty trace", path)
	}
	c := &checker{limit: event.Seq(n), cut: sorted[n-1].TS, net: map[string]int{}}
	if p.Agg != nil {
		c.slide = p.Agg.Slide
	}
	for _, e := range sorted[:n] {
		if e.Seq > c.limit {
			return nil, verdict{}, fmt.Errorf("%s: Seq %d is outside the first %d events in timestamp order", path, e.Seq, n)
		}
	}
	en, err := oostream.NewEngine(q, w.config())
	if err != nil {
		return nil, verdict{}, err
	}
	var out sink
	if _, _, err := replay(path, en, &out, c); err != nil {
		return nil, verdict{}, err
	}

	var truth []plan.Match
	if p.Agg != nil {
		truth = windowTruth(p, sorted[:n], c.cut)
	} else {
		truth = oracle.Matches(p, sorted[:n])
	}
	want := plan.KeySet(truth)
	v := verdict{attempted: len(truth), share: float64(n) / float64(len(sorted)), sum: out.sum}
	var diffs []string
	for k, cnt := range want {
		if got := c.net[k]; got != cnt {
			v.failed += abs(got - cnt)
			diffs = append(diffs, fmt.Sprintf("%s: want %d got %d", k, cnt, got))
		}
	}
	for k, got := range c.net {
		if _, ok := want[k]; !ok {
			v.failed += abs(got)
			diffs = append(diffs, fmt.Sprintf("%s: want 0 got %d", k, got))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 5 {
		diffs = append(diffs[:5], fmt.Sprintf("… %d more", len(diffs)-5))
	}
	for _, d := range diffs {
		v.diff += d + "\n"
	}
	return c, v, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// windowSample is the share of grid windows the reference recomputes:
// folding every overlapping window from scratch is quadratic in the window
// population, and a sliding window's neighbours share all but a few
// elements.
const windowSample = 8

func sampledWindow(end, slide event.Time) bool { return (end/slide)%windowSample == 0 }

// windowTruth is the reference for aggregate queries: oracle matches of the
// inner pattern, folded from scratch into every sampled grid window that
// ends at or before cut. It uses the plan's own element and result helpers
// and none of the engine's window bookkeeping.
func windowTruth(p *plan.Plan, sorted []event.Event, cut event.Time) []plan.Match {
	spec := p.Agg
	type elem struct {
		ts   event.Time
		part fiba.Partial
	}
	var elems []elem
	for _, m := range oracle.Matches(p, sorted) {
		if ts, part, _, ok := spec.ElementOf(m, nil); ok {
			elems = append(elems, elem{ts, part})
		}
	}
	sort.Slice(elems, func(i, j int) bool { return elems[i].ts < elems[j].ts })
	ends := map[event.Time]bool{}
	for _, el := range elems {
		for end := plan.AlignUp(el.ts, spec.Slide); end-p.Window < el.ts && end <= cut; end += spec.Slide {
			if sampledWindow(end, spec.Slide) {
				ends[end] = true
			}
		}
	}
	var out []plan.Match
	for end := range ends {
		lo := sort.Search(len(elems), func(i int) bool { return elems[i].ts > end-p.Window })
		var part fiba.Partial
		for _, el := range elems[lo:] {
			if el.ts > end {
				break
			}
			part = part.Merge(el.part)
		}
		v, count, ok := spec.Result(part)
		if !ok {
			continue
		}
		av := &plan.AggValue{
			Func: string(spec.Func), WindowStart: end - p.Window, WindowEnd: end,
			Value: v, Count: count,
		}
		if spec.EvalHaving(av, nil) {
			out = append(out, plan.Match{Kind: plan.Insert, Events: []event.Event{plan.WindowEvent(end)}, Agg: av})
		}
	}
	return out
}
