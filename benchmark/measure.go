package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"oostream"
	"oostream/internal/plan"
)

// result is what measuring one workload once produced. The measuring child
// prints it as JSON; the parent adds setup_s and reports it.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Why says what was wrong when Correct is false.
	Why      string             `json:"why,omitempty"`
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]summary `json:"per_layer,omitempty"`
	// Unresolved names per-layer differences that came out smaller than
	// the spread between timed passes and are therefore reported as 0.
	Unresolved []string `json:"unresolved,omitempty"`
	// Phases is where the measuring process spent its wall time, in seconds.
	Phases map[string]float64 `json:"phases"`
}

const (
	minPasses = 5
	// tracedReserve is the part of the measuring time a traced run keeps
	// for the traced and paced passes.
	tracedReserve = 3 * time.Second
)

// peakRSS is the process's resident-set high-water mark in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func gcCPU() float64 {
	metrics.Read(gcCPUSample)
	return gcCPUSample[0].Value.Float64()
}

// timeIt returns the median duration of reps calls of f, in microseconds.
func timeIt(reps int, f func() error) (float64, error) {
	var us []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// timed is the outcome of the timed passes: what each pass cost, and the
// factors that scale its wall and processor time to the reference kernel's
// nominal speed (see reference.go).
type timed struct {
	passes    []pass
	scales    []float64
	cpuScales []float64
	refMS     []float64
	gcShare   float64
}

// timedPasses replays the trace through fresh engines for about d and at
// least minPasses times, or once when d is zero (a smoke run), each pass
// between two runs of the reference kernel.
func timedPasses(path string, q *oostream.Query, cfg oostream.Config, d time.Duration) (timed, error) {
	var t timed
	var gcSeconds, cpuSeconds float64
	before := reference()
	atLeast := minPasses
	if d <= 0 {
		atLeast = 1
	}
	for start := time.Now(); len(t.passes) < atLeast || time.Since(start) < d; {
		gc0, cpu0 := gcCPU(), cpuTime()
		ps, err := timedPass(path, q, cfg, len(t.passes))
		if err != nil {
			return timed{}, err
		}
		gcSeconds += gcCPU() - gc0
		cpuSeconds += (cpuTime() - cpu0).Seconds()
		after := reference()
		t.passes = append(t.passes, ps)
		t.scales = append(t.scales, scale(before.wall, after.wall))
		t.cpuScales = append(t.cpuScales, scale(before.cpu, after.cpu))
		t.refMS = append(t.refMS, float64(before.wall.Microseconds())/1e3)
		before = after
	}
	t.gcShare = gcSeconds / cpuSeconds
	return t, nil
}

// rawKevs is each pass's throughput as the clock saw it.
func (t timed) rawKevs() []float64 {
	var out []float64
	for _, ps := range t.passes {
		out = append(out, float64(ps.Events)/ps.Wall.Seconds()/1e3)
	}
	return out
}

// figures are the end-to-end figures the timed passes supply.
func (t timed) figures() map[string]summary {
	var kevs, cpuUS, allocKB []float64
	for i, ps := range t.passes {
		n := float64(ps.Events)
		kevs = append(kevs, n/(ps.Wall.Seconds()*t.scales[i])/1e3)
		cpuUS = append(cpuUS, float64(ps.CPU.Nanoseconds())*t.cpuScales[i]/1e3/n)
		allocKB = append(allocKB, float64(ps.Alloc)/1024/n)
	}
	return map[string]summary{
		"throughput_kev_s":   typical(kevs, "kev/s"),
		"cpu_us_per_event":   typical(cpuUS, "us"),
		"alloc_kb_per_event": typical(allocKB, "KiB"),
	}
}

// consistent reports what, if anything, the passes disagree on.
func (t timed) consistent(verifySum uint32) string {
	first := t.passes[0]
	for _, ps := range t.passes {
		if ps.Sum != first.Sum || ps.Events != first.Events || ps.Results != first.Results {
			return "timed passes disagree on their output"
		}
	}
	if verifySum != first.Sum {
		return "the verify pass printed different bytes from the timed passes"
	}
	return ""
}

// measure runs the workload's trace at path: a warm-up pass, timed passes
// for about d, the oracle check, and with traced set the traced and paced
// passes that feed the per-layer figures. It runs on one processor: the
// replay loop is a single goroutine, so a second one only buys concurrent
// garbage collection, which on a two-CPU virtual machine made passes slower
// and several times noisier.
func measure(w workload, seed int64, path, outDir string, d time.Duration, traced bool) (*result, error) {
	runtime.GOMAXPROCS(1)
	phases := map[string]float64{}
	mark := time.Now()
	lap := func(name string) {
		phases[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}
	p, err := plan.ParseAndCompile(w.query, nil)
	if err != nil {
		return nil, err
	}
	if p.Agg != nil && p.Agg.GroupSlot >= 0 {
		return nil, fmt.Errorf("%s: the window reference handles ungrouped aggregates only", w.name)
	}
	var q *oostream.Query
	compileUS, err := timeIt(5, func() (err error) {
		q, err = oostream.Compile(w.query, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	constructUS, err := timeIt(5, func() error {
		_, err := oostream.NewEngine(q, w.config())
		return err
	})
	if err != nil {
		return nil, err
	}
	if _, err := timedPass(path, q, w.config(), 0); err != nil {
		return nil, err
	}
	lap("warm-up")

	if traced {
		d -= tracedReserve
	}
	t, err := timedPasses(path, q, w.config(), d)
	if err != nil {
		return nil, err
	}
	lap("timed")

	c, v, err := check(w, p, q, path)
	if err != nil {
		return nil, err
	}
	delays, peaks := c.delays, []float64{float64(c.peakState)}
	for i := int64(1); i <= extraStreams; i++ {
		extra, err := eventTime(w, q, seed+i*1_000_003)
		if err != nil {
			return nil, err
		}
		delays = append(delays, extra.delays...)
		peaks = append(peaks, float64(extra.peakState))
	}
	lap("check")

	res := &result{
		Workload: w.name, Seed: seed,
		Attempted: max(v.attempted, 1), Failed: v.failed,
		Phases: phases,
	}
	switch {
	case v.failed > 0:
		res.Why = fmt.Sprintf("%d of %d oracle results differ:\n%s", v.failed, v.attempted, v.diff)
	case v.attempted == 0:
		res.Why = "the oracle found no result to check"
	default:
		res.Why = t.consistent(v.sum)
	}
	res.EndToEnd = t.figures()
	res.EndToEnd["result_delay_mean_ms"] = exact(mean(delays), "event-ms")
	res.EndToEnd["result_delay_p99_ms"] = exact(quantile(delays, 0.99), "event-ms")
	res.EndToEnd["peak_state"] = exact(mean(peaks), "items")

	if traced {
		tr := newTracer(w.name)
		before := reference()
		tp, err := tracedPass(w, p, q, path, tr, traceBlock)
		if err != nil {
			return nil, err
		}
		after := reference()
		if res.Why == "" && tp.sum != v.sum {
			res.Why = "the traced pass printed different bytes from the timed passes"
		}
		lap("traced")
		raw := t.rawKevs()
		pp, err := pacedPass(path, q, w.config(), median(raw)*1e3/2)
		if err != nil {
			return nil, err
		}
		lap("paced")
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(outDir, w.name+".spans.jsonl")); err != nil {
			return nil, err
		}
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		lm := layerModel{
			tr: tr, tp: tp, fileBytes: info.Size(),
			passWall: median(wallsOf(t.passes)), passSpread: spread(raw),
			scale: scale(before.wall, after.wall),
		}
		layers := lm.metrics()
		layers["oostream.compile_us"] = compileUS
		layers["oostream.construct_us"] = constructUS
		layers["driver.passes"] = float64(len(t.passes))
		layers["driver.pass_spread"] = lm.passSpread
		layers["driver.gc_cpu_share"] = t.gcShare
		layers["driver.raw_kev_s"] = median(raw)
		layers["driver.reference_ms"] = median(t.refMS)
		layers["driver.results"] = float64(c.inserts)
		layers["driver.retractions"] = float64(c.retractions)
		layers["driver.verified_share"] = v.share
		if c.inserts > 0 {
			layers["speculate.retracted_share"] = float64(c.retractions) / float64(c.inserts)
		}
		layers["gen.paced_rate_kev_s"] = pp.rate / 1e3
		layers["gen.latency_p50_us"] = median(pp.latencies)
		layers["gen.latency_p99_us"] = quantile(pp.latencies, 0.99)
		layers["gen.latency_samples"] = float64(len(pp.latencies))
		layers["gen.lateness_p99_us"] = quantile(pp.lateness, 0.99)
		layers["gen.backlog_growth"] = pp.growth
		res.PerLayer = make(map[string]summary, len(perLayer))
		for _, def := range perLayer {
			res.PerLayer[def.Name] = exact(layers[def.Name], def.Unit)
		}
		res.Unresolved = lm.unresolved
	}
	res.Correct = res.Why == ""
	return res, nil
}

func wallsOf(passes []pass) []float64 {
	var s []float64
	for _, ps := range passes {
		s = append(s, ps.Wall.Seconds())
	}
	return s
}

// layerModel turns the traced pass's spans and counts into the per-layer
// figures.
type layerModel struct {
	tr        *tracer
	tp        traced
	fileBytes int64
	// passWall is the median timed pass in seconds, passSpread the
	// quartile spread of the timed passes' throughput.
	passWall   float64
	passSpread float64
	// scale turns the traced pass's durations into durations at the
	// reference kernel's nominal speed; shares do not need it.
	scale      float64
	unresolved []string
}

// resolved returns diff, or 0 with name noted as unresolved when diff is
// smaller than the spread between timed passes applied to base: such a
// difference is noise, and it is never reported negative.
func (m *layerModel) resolved(name string, diff, base time.Duration) time.Duration {
	if float64(diff) < m.passSpread*float64(base) {
		m.unresolved = append(m.unresolved, name)
		return 0
	}
	return diff
}

func (m *layerModel) metrics() map[string]float64 {
	tr, tp := m.tr, m.tp
	n := float64(tp.events)
	per := func(d time.Duration, count int) float64 {
		if count == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) * m.scale / float64(count)
	}
	perEvent := func(d time.Duration) float64 { return per(d, tp.events) }

	decode := tr.total("trace.decode")
	process := tr.total("oostream.process")
	render := tr.total("plan.render")
	shadowT := tr.total("shadow")
	passSpan := tr.spans[tp.pass-1]
	// own is the traced pass without the replays: what esprun's loop costs
	// when it is cut into blocks and timed.
	own := time.Duration(passSpan.End-passSpan.Start) - shadowT
	share := func(d time.Duration) float64 { return float64(d) / float64(own) }

	raw := tr.total("oostream.raw")
	coreT := tr.total("core.process")
	aggT := tr.total("agg.process")
	buffer := tr.total("kslack.buffer")
	inord := tr.total("inorder.process")
	specT := tr.total("speculate.process")
	// explained is the process time the strategy's own layers account for
	// when run bare: the kernel, or the window operator around its kernel.
	explained := coreT + buffer + inord + specT
	var aggSelf time.Duration
	if aggT > 0 {
		explained = aggT
		aggSelf = m.resolved("agg.self_ns_per_event", aggT-coreT, aggT)
	}

	out := map[string]float64{
		"trace.decode_ns_per_event": perEvent(decode),
		"trace.decode_mb_s":         float64(m.fileBytes) / 1e6 / (decode.Seconds() * m.scale),
		"trace.decode_share":        share(decode),
		"trace.allocs_per_event":    float64(tp.decodeAllocs) / n,
		"trace.bytes_per_event":     float64(m.fileBytes) / n,

		"plan.render_ns_per_result":    per(render, tp.results),
		"plan.render_bytes_per_result": 0,
		"plan.render_share":            share(render),
		"plan.results_per_event":       float64(tp.results) / n,

		"oostream.process_ns_per_event":     perEvent(process),
		"oostream.process_share":            share(process),
		"oostream.facade_self_ns_per_event": perEvent(m.resolved("oostream.facade_self_ns_per_event", process-raw, process)),

		"core.process_ns_per_event": perEvent(coreT),
		"core.share":                share(coreT),
		"core.repairs":              float64(tp.coreMet.Repairs),
		"core.purged":               float64(tp.coreMet.Purged),
		"core.purge_calls":          float64(tp.coreMet.PurgeCalls),
		"core.peak_key_groups":      float64(tp.coreMet.PeakKeyGroups),
		"core.allocs_per_event":     float64(tp.counts.coreAllocs) / n,
		"core.probes_per_event":     float64(tp.coreMet.Probes) / n,

		"ais.insert_ns_per_event": perEvent(tr.total("ais.insert")),
		"ais.purge_ns_per_event":  perEvent(tr.total("ais.purge")),

		"kslack.buffer_ns_per_event":   perEvent(buffer),
		"kslack.peak_len":              float64(tp.counts.kslackPeak),
		"inorder.process_ns_per_event": perEvent(inord),
		"inorder.share":                share(inord),

		"speculate.process_ns_per_event": perEvent(specT),
		"speculate.share":                share(specT),

		"agg.self_ns_per_event":  perEvent(aggSelf),
		"agg.share":              share(aggSelf),
		"agg.windows":            float64(tp.met.AggWindows),
		"agg.revisions":          float64(tp.met.AggRevisions),
		"agg.peak_elements":      float64(tp.counts.peakAggElems),
		"fiba.insert_ns":         per(tr.total("fiba.insert"), tp.counts.fibaInserts),
		"fiba.query_ns":          per(tr.total("fiba.query"), tp.counts.fibaQueries),
		"fiba.purge_ns_per_elem": per(tr.total("fiba.purge"), tp.counts.fibaPurged),
		"fiba.height":            float64(tp.counts.peakFibaHeight),

		"driver.self_share":         share(own - decode - process - render),
		"driver.unattributed_share": float64(m.resolved("driver.unattributed_share", process-explained, process)) / float64(process),
		"driver.late_dropped":       float64(tp.met.EventsLate),
	}
	if tp.results > 0 {
		out["plan.render_bytes_per_result"] = float64(tp.bytes) / float64(tp.results)
	}
	if tp.coreMet.Probes > 0 {
		out["core.empty_probe_share"] = float64(tp.coreMet.EmptyProbes) / float64(tp.coreMet.Probes)
	}
	if tp.counts.aisInserts > 0 {
		out["ais.fixups_per_insert"] = float64(tp.counts.aisFixups) / float64(tp.counts.aisInserts)
	}
	if tp.counts.held > 0 {
		out["kslack.mean_hold_ms"] = tp.counts.holdSum / float64(tp.counts.held)
	}
	if tp.met.AggInserts > 0 {
		out["fiba.finger_hit_share"] = float64(tp.met.AggFingerHits) / float64(tp.met.AggInserts)
	}
	usual := time.Duration(m.passWall * float64(time.Second))
	out["driver.trace_overhead_share"] = float64(m.resolved("driver.trace_overhead_share", own-usual, usual)) / float64(usual)
	return out
}

// footprint is what the two-processor process reports.
type footprint struct {
	PeakRSS float64 `json:"peak_rss_mb"`
	KevS    float64 `json:"kev_s"`
}

// memoryPasses is how many passes follow the warm-up in the process whose
// resident set is reported.
const memoryPasses = 2

// memory replays the trace a few times on two processors, the runtime's
// default on the machines this runs on, and reports the process's peak
// resident set. The timed passes cannot supply it: on one processor the
// collector marks in the replay loop's time slices, the heap overshoots by
// however long that takes, and the high-water mark of identical runs
// alternated between two values a third apart; with a processor of its own
// the collector keeps up and the mark repeats within a few percent.
func memory(w workload, path string) (footprint, error) {
	runtime.GOMAXPROCS(2)
	q, err := oostream.Compile(w.query, nil)
	if err != nil {
		return footprint{}, err
	}
	var fp footprint
	for i := 0; i <= memoryPasses; i++ {
		ps, err := timedPass(path, q, w.config(), i)
		if err != nil {
			return footprint{}, err
		}
		if i > 0 {
			fp.KevS = max(fp.KevS, float64(ps.Events)/ps.Wall.Seconds()/1e3)
		}
	}
	fp.PeakRSS, err = peakRSS()
	return fp, err
}
