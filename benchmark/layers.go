package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"time"

	"oostream"
	"oostream/internal/agg"
	"oostream/internal/ais"
	"oostream/internal/core"
	"oostream/internal/event"
	"oostream/internal/fiba"
	"oostream/internal/inorder"
	"oostream/internal/kslack"
	"oostream/internal/plan"
	"oostream/internal/speculate"
)

// span is one timed interval of the traced pass. The spans of a run form a
// tree: run → pass → block → {trace.decode, oostream.process, plan.render,
// shadow → layer replays}. A span's self time is its length minus the
// lengths of its children.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.epoch)) }

// total is the summed length of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush %s: %w", path, err)
	}
	return f.Close()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// allocObjects is the number of heap objects allocated so far. Unlike
// runtime.ReadMemStats it does not stop the world, so it is cheap enough to
// read around every block.
func allocObjects() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

const (
	traceBlock = 1024
	// aisChunk is the native engine's default purge cadence.
	aisChunk = 64
)

// shadow replays a block's events through each inner layer's public API, on
// state of its own, so that the time the facade spends in a layer can be
// read from outside the library. Which layers exist follows from the
// workload's strategy.
type shadow struct {
	w workload
	p *plan.Plan

	raw oostream.RawEngine

	core   *core.Engine
	stacks *ais.Stacks
	keyed  *ais.KeyedStacks
	clock  event.Time
	// since counts pattern events since the last purge of the bare stacks.
	since int

	buf *kslack.Buffer
	in  *inorder.Engine

	spec *speculate.Engine

	agg     *agg.Engine
	tree    *fiba.Tree
	elemSeq uint64

	// matches, windows and released are reused from block to block, as the
	// facade's own result slice is.
	matches  []plan.Match
	windows  []plan.Match
	released []event.Event

	counts layerCounts
}

// layerCounts are the exact counts the replays produce.
type layerCounts struct {
	coreAllocs   uint64
	aisInserts   int
	aisFixups    int
	kslackPeak   int
	held         int
	holdSum      float64
	fibaInserts  int
	fibaQueries  int
	fibaPurged   int
	peakAggElems int
	// peakFibaHeight is sampled once a block, like peakAggElems.
	peakFibaHeight int
}

func newShadow(w workload, p *plan.Plan, q *oostream.Query) (*shadow, error) {
	en, err := oostream.NewEngine(q, w.config())
	if err != nil {
		return nil, err
	}
	s := &shadow{w: w, p: p, raw: en.Raw()}
	switch w.strategy {
	case oostream.StrategyNative:
		if s.core, err = core.New(p, core.Options{K: w.k}); err != nil {
			return nil, err
		}
		if p.PartitionKey != "" {
			s.keyed = ais.NewKeyed(p.Len())
		} else {
			s.stacks = ais.New(p.Len())
		}
		if p.Agg != nil {
			inner, err := core.New(p, core.Options{K: w.k})
			if err != nil {
				return nil, err
			}
			s.agg = agg.New(p, inner, false, w.k)
			s.tree = fiba.New()
		}
	case oostream.StrategyKSlack:
		s.buf = kslack.NewBuffer(w.k)
		s.in = inorder.New(p)
	case oostream.StrategySpeculate:
		if s.spec, err = speculate.New(p, speculate.Options{K: w.k}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("no layer replay for strategy %q", w.strategy)
	}
	return s, nil
}

// step replays one block. eof also seals every replayed layer, as the
// facade's Flush does.
func (s *shadow) step(tr *tracer, parent int, block []event.Event, eof bool) {
	id := tr.begin(parent, "oostream.raw")
	for _, e := range block {
		s.raw.Process(e)
	}
	if eof {
		s.raw.Flush()
	}
	tr.end(id)

	switch {
	case s.buf != nil:
		s.stepKSlack(tr, parent, block, eof)
	case s.spec != nil:
		id := tr.begin(parent, "speculate.process")
		for _, e := range block {
			s.spec.Process(e)
		}
		if eof {
			s.spec.Flush()
		}
		tr.end(id)
	default:
		s.stepNative(tr, parent, block, eof)
	}
}

func (s *shadow) stepKSlack(tr *tracer, parent int, block []event.Event, eof bool) {
	released := s.released[:0]
	id := tr.begin(parent, "kslack.buffer")
	for _, e := range block {
		rel := s.buf.Push(e)
		if len(rel) > 0 {
			// Hold time in event time: the buffer's clock at release minus
			// the released event's timestamp.
			now, _ := s.buf.MaxSeen()
			for _, r := range rel {
				s.counts.holdSum += float64(now - r.TS)
			}
			s.counts.held += len(rel)
			released = append(released, rel...)
		}
		if n := s.buf.Len(); n > s.counts.kslackPeak {
			s.counts.kslackPeak = n
		}
	}
	if eof {
		released = append(released, s.buf.Flush()...)
	}
	tr.end(id)

	id = tr.begin(parent, "inorder.process")
	for _, e := range released {
		s.in.Process(e)
	}
	if eof {
		s.in.Flush()
	}
	tr.end(id)
	s.released = released
}

func (s *shadow) stepNative(tr *tracer, parent int, block []event.Event, eof bool) {
	matches := s.matches[:0]
	allocs := allocObjects()
	id := tr.begin(parent, "core.process")
	for _, e := range block {
		matches = append(matches, s.core.Process(e)...)
	}
	if eof {
		matches = append(matches, s.core.Flush()...)
	}
	tr.end(id)
	s.counts.coreAllocs += allocObjects() - allocs
	s.matches = matches

	s.stepAIS(tr, parent, block)
	if s.agg == nil {
		return
	}

	windows := s.windows[:0]
	id = tr.begin(parent, "agg.process")
	for _, e := range block {
		windows = append(windows, s.agg.Process(e)...)
	}
	if eof {
		windows = append(windows, s.agg.Flush()...)
	}
	tr.end(id)
	met := s.agg.Metrics()
	s.counts.peakAggElems = max(s.counts.peakAggElems, met.AggElements)
	s.counts.peakFibaHeight = max(s.counts.peakFibaHeight, met.AggTreeHeight)
	s.windows = windows
	s.stepFiba(tr, parent, matches, windows)
}

// stepAIS inserts the block's pattern events into bare stacks and purges
// them at the engine's cadence (every aisChunk pattern events) and horizons,
// with no construction.
func (s *shadow) stepAIS(tr *tracer, parent int, block []event.Event) {
	last := s.p.Len() - 1
	horizon := func(pos int) event.Time {
		safe := s.clock - s.w.k
		if pos == last {
			return safe
		}
		return safe - s.p.Window
	}
	id := tr.begin(parent, "ais.insert")
	for _, e := range block {
		if !s.p.Relevant(e.Type) {
			continue
		}
		s.clock = max(s.clock, e.TS)
		for _, pos := range s.p.PositionsForType(e.Type) {
			if s.keyed != nil {
				key, ok := plan.KeyOf(e, s.p.PartitionKey)
				if !ok {
					continue
				}
				_, st := s.keyed.Insert(key, pos, e)
				s.counts.aisFixups += st.LastFixups()
			} else {
				s.stacks.Insert(pos, e)
				s.counts.aisFixups += s.stacks.LastFixups()
			}
			s.counts.aisInserts++
		}
		if s.since++; s.since < aisChunk {
			continue
		}
		s.since = 0
		tr.end(id)
		id = tr.begin(parent, "ais.purge")
		if s.keyed != nil {
			s.keyed.PurgeBefore(horizon)
		} else {
			s.stacks.PurgeBefore(horizon)
		}
		tr.end(id)
		id = tr.begin(parent, "ais.insert")
	}
	tr.end(id)
}

// stepFiba replays the window operator's tree traffic on a bare tree: one
// insert per inner match, one range query and one purge per emitted window.
func (s *shadow) stepFiba(tr *tracer, parent int, matches, windows []plan.Match) {
	type elem struct {
		key  fiba.Key
		part fiba.Partial
	}
	elems := make([]elem, 0, len(matches))
	for _, m := range matches {
		if ts, part, _, ok := s.p.Agg.ElementOf(m, nil); ok {
			elems = append(elems, elem{fiba.Key{TS: ts, Seq: s.elemSeq}, part})
			s.elemSeq++
		}
	}
	id := tr.begin(parent, "fiba.insert")
	for _, el := range elems {
		s.tree.Insert(el.key, el.part, nil)
	}
	tr.end(id)
	s.counts.fibaInserts += len(elems)

	w, slide := s.p.Window, s.p.Agg.Slide
	id = tr.begin(parent, "fiba.query")
	for _, m := range windows {
		end := m.Agg.WindowEnd
		s.tree.Query(fiba.Key{TS: end - w, Seq: fiba.MaxSeq}, fiba.Key{TS: end, Seq: fiba.MaxSeq})
	}
	tr.end(id)
	s.counts.fibaQueries += len(windows)

	id = tr.begin(parent, "fiba.purge")
	for _, m := range windows {
		s.counts.fibaPurged += s.tree.PurgeThrough(fiba.Key{TS: m.Agg.WindowEnd + slide - w, Seq: fiba.MaxSeq}, func(any) {})
	}
	tr.end(id)
}

// traced is what the traced pass saw besides its spans.
type traced struct {
	events       int
	results      int
	bytes        int64
	sum          uint32
	decodeAllocs uint64
	met          oostream.Metrics
	coreMet      oostream.Metrics
	counts       layerCounts
	pass         int
}

// tracedPass runs the trace once in blocks of blockLen events, recording
// a span around each call into a layer. Blocks alternate between running
// the facade first and the replays first, so neither side always finds the
// block's events warm in cache, and rotate through the stack slots.
func tracedPass(w workload, p *plan.Plan, q *oostream.Query, path string, tr *tracer, blockLen int) (traced, error) {
	r, closeTrace, err := openTrace(path)
	if err != nil {
		return traced{}, err
	}
	defer closeTrace()
	en, err := oostream.NewEngine(q, w.config())
	if err != nil {
		return traced{}, err
	}
	sh, err := newShadow(w, p, q)
	if err != nil {
		return traced{}, err
	}

	var res traced
	var out sink
	block := make([]event.Event, 0, blockLen)
	var ms []oostream.Match
	run := tr.begin(0, "run")
	res.pass = tr.begin(run, "pass")
	// next is read one event ahead, so that the block holding the last
	// event knows it must also flush.
	next, err := r.Read()
	if err != nil && err != io.EOF {
		return traced{}, fmt.Errorf("read %s: %w", path, err)
	}
	eof := err == io.EOF
	for n := 0; !eof; n++ {
		blockID := tr.begin(res.pass, "block")
		block = block[:0]
		allocs := allocObjects()
		id := tr.begin(blockID, "trace.decode")
		for len(block) < blockLen && !eof {
			block = append(block, next)
			if next, err = r.Read(); err == io.EOF {
				eof = true
			} else if err != nil {
				return traced{}, fmt.Errorf("read %s: %w", path, err)
			}
		}
		tr.end(id)
		res.decodeAllocs += allocObjects() - allocs

		facade := func() {
			ms = ms[:0]
			id := tr.begin(blockID, "oostream.process")
			for _, e := range block {
				ms = append(ms, en.Process(e)...)
			}
			if eof {
				ms = append(ms, en.Flush()...)
			}
			tr.end(id)
			id = tr.begin(blockID, "plan.render")
			for _, m := range ms {
				fmt.Fprintln(&out, m)
			}
			tr.end(id)
			res.results += len(ms)
		}
		replays := func() {
			id := tr.begin(blockID, "shadow")
			sh.step(tr, id, block, eof)
			tr.end(id)
		}
		// The order flips with every block and once more every stackSlots
		// blocks, so each stack slot sees both orders.
		atStackOffset(n%stackSlots, func() {
			if (n+n/stackSlots)%2 == 0 {
				facade()
				replays()
			} else {
				replays()
				facade()
			}
		})
		res.events += len(block)
		tr.end(blockID)
	}
	tr.end(res.pass)
	tr.end(run)

	res.bytes, res.sum = out.bytes, out.sum
	res.met = en.Metrics()
	if sh.core != nil {
		res.coreMet = sh.core.Metrics()
	}
	res.counts = sh.counts
	return res, nil
}

// paced is the outcome of the open-loop pass.
type paced struct {
	rate      float64
	latencies []float64
	lateness  []float64
	growth    float64
}

const pacedBlock = 256

// pacedPass offers the trace at a fixed rate, in blocks of pacedBlock
// events on a schedule that does not wait for the engine: each block's
// latency runs from when the block was due, not from when it was started,
// so a stall is charged to every block it delays. The trace bounds the
// pass: at half the closed-loop rate it lasts twice a timed pass.
func pacedPass(path string, q *oostream.Query, cfg oostream.Config, rate float64) (paced, error) {
	r, closeTrace, err := openTrace(path)
	if err != nil {
		return paced{}, err
	}
	defer closeTrace()
	en, err := oostream.NewEngine(q, cfg)
	if err != nil {
		return paced{}, err
	}
	res := paced{rate: rate}
	var out sink
	gap := time.Duration(float64(pacedBlock) / rate * float64(time.Second))
	start := time.Now()
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * gap)
		time.Sleep(time.Until(due))
		res.lateness = append(res.lateness, float64(time.Since(due).Microseconds()))
		eof := false
		for i := 0; i < pacedBlock; i++ {
			e, err := r.Read()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return paced{}, fmt.Errorf("read %s: %w", path, err)
			}
			for _, m := range en.Process(e) {
				fmt.Fprintln(&out, m)
			}
		}
		if eof {
			for _, m := range en.Flush() {
				fmt.Fprintln(&out, m)
			}
		}
		res.latencies = append(res.latencies, float64(time.Since(due).Microseconds()))
		if eof {
			break
		}
	}
	// Backlog growth: how much later the last tenth of the blocks started
	// than the first tenth, as a share of the pass. Near 0 when the rate is
	// sustainable.
	tenth := max(1, len(res.lateness)/10)
	head := mean(res.lateness[:tenth])
	tail := mean(res.lateness[len(res.lateness)-tenth:])
	res.growth = max(0, tail-head) / float64(time.Since(start).Microseconds())
	return res, nil
}
