// Command esprun evaluates a pattern query over an event trace (JSON
// Lines, as produced by cmd/espgen) under a chosen out-of-order handling
// strategy, printing matches and an engine metrics summary.
//
// Usage:
//
//	esprun -query 'PATTERN SEQ(SHELF s, EXIT e) WHERE s.id = e.id WITHIN 6s' \
//	       -strategy native -k 2000 -trace trace.jsonl
//
// With -checkpoint-dir the run is supervised by the fault-tolerant
// runtime: every event is logged to a write-ahead log before processing
// and the engine state is checkpointed every -checkpoint-every events. A
// killed run resumes with -resume over the same trace — admission control
// skips everything already processed, so matches are printed exactly once
// across the two invocations:
//
//	esprun -query ... -trace trace.jsonl -checkpoint-dir state/
//	^C (or crash)
//	esprun -query ... -trace trace.jsonl -checkpoint-dir state/ -resume
//
// With -queries the run is multi-query: the file holds one query per line
// (optionally "id: QUERY ..."; blank lines and #-comments skipped), all
// evaluated over the single stream by a shared-admission QuerySet, and
// every match is printed with its owning query id. Combined with
// -checkpoint-dir the whole registry is supervised under the v2
// checkpoint format.
//
// With -explain every emitted match is followed by its lineage record —
// the contributing events, key group, window bounds, and (for
// retractions) the late event that invalidated the result. With -listen
// the live engine state is additionally served on /debug/state, refreshed
// from the processing loop; cmd/espexplain renders both.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"oostream"
	"oostream/internal/obsv/httpx"
	"oostream/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "esprun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("esprun", flag.ContinueOnError)
	var (
		queryText = fs.String("query", "", "query text (required unless -query-file or -queries)")
		queryFile = fs.String("query-file", "", "file containing the query text")
		queries   = fs.String("queries", "", "multi-query file: one query per line (optionally \"id: QUERY ...\"), run as a shared QuerySet")
		traceFile = fs.String("trace", "", "trace file (default stdin)")
		strategy  = fs.String("strategy", "native", "strategy: native, inorder, kslack, speculate, hybrid")
		k         = fs.Int64("k", 1000, "disorder bound K (logical ms)")
		adaptOn   = fs.Bool("adaptive", false, "derive K online as a lag quantile (-k then only seeds the controller)")
		adaptJSON = fs.String("adaptive-config", "", `adaptive controller config as JSON, e.g. '{"enabled":true,"quantile":0.99,"margin":1.5}' (-adaptive sets enabled)`)
		sloJSON   = fs.String("slo", "", `hybrid switch policy as JSON, e.g. '{"maxLatency":2000,"maxRetractionRate":0.05}'`)
		limJSON   = fs.String("limits", "", `overload degradation limits as JSON, e.g. '{"maxBufferedEvents":100000,"maxLag":5000}'`)
		quiet     = fs.Bool("quiet", false, "suppress per-match output")
		maxPrint  = fs.Int("max-print", 20, "print at most this many matches (0 = all)")
		planOnly  = fs.Bool("plan", false, "print the compiled plan and exit")
		explain   = fs.Bool("explain", false, "enable match provenance and print each match's lineage record")
		ckptDir   = fs.String("checkpoint-dir", "", "run supervised: durable checkpoint+WAL directory")
		ckptEvery = fs.Int("checkpoint-every", 1000, "checkpoint every N events (with -checkpoint-dir)")
		resume    = fs.Bool("resume", false, "resume a previous run from -checkpoint-dir")
		listen    = fs.String("listen", "", "serve live observability HTTP on this address (/metrics, /varz, /healthz, /debug/flight, /debug/state, /debug/latency, /debug/pprof), e.g. :9090")
		linger    = fs.Duration("linger", 0, "with -listen: keep the HTTP endpoint up this long after the trace completes")
		batchSize = fs.Int("batch", 0, "ingest in batches of this many events (0/1 = per event; output is identical)")
		latSample = fs.Int("latency-sample", 0, "sample 1 in N events for wall-clock latency attribution (0 = off; rounded up to a power of two)")
		latSLO    = fs.Duration("latency-slo", 0, "wall-clock latency objective per event, e.g. 5ms (requires -latency-sample); enables SLO burn-rate tracking")
		latTarget = fs.Float64("latency-slo-target", 0.99, "fraction of sampled events that must meet -latency-slo")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	src := *queryText
	if src == "" && *queryFile != "" {
		raw, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		src = string(raw)
	}
	if src == "" && *queries == "" {
		return fmt.Errorf("a query is required (-query, -query-file, or -queries)")
	}
	if src != "" && *queries != "" {
		return fmt.Errorf("-queries is exclusive with -query/-query-file")
	}

	var q *oostream.Query
	var registry []namedQuery
	if *queries != "" {
		var err error
		if registry, err = readQueries(*queries); err != nil {
			return err
		}
		if *planOnly {
			for _, nq := range registry {
				if _, err := fmt.Fprintf(stdout, "-- %s --\n%s", nq.id, nq.q.Explain()); err != nil {
					return err
				}
			}
			return nil
		}
	} else {
		var err error
		if q, err = oostream.Compile(src, nil); err != nil {
			return err
		}
		if *planOnly {
			_, err := fmt.Fprint(stdout, q.Explain())
			return err
		}
	}
	cfg := oostream.Config{
		Strategy:   oostream.Strategy(*strategy),
		K:          oostream.Time(*k),
		Provenance: *explain,
		Latency: oostream.Latency{
			SampleEvery: *latSample,
			SLO:         oostream.LatencySLO{Objective: *latSLO, Target: *latTarget},
		},
	}
	var ac oostream.Adaptive
	for _, opt := range []struct {
		name, text string
		into       any
	}{{"-adaptive-config", *adaptJSON, &ac}, {"-slo", *sloJSON, &ac.SLO}, {"-limits", *limJSON, &ac.Limits}} {
		if opt.text == "" {
			continue
		}
		// A misspelt key, or one of a removed setting, is an error, not a
		// setting silently left at its default.
		dec := json.NewDecoder(strings.NewReader(opt.text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(opt.into); err != nil {
			return fmt.Errorf("%s: %w", opt.name, err)
		}
	}
	ac.Enabled = ac.Enabled || *adaptOn
	cfg.Adaptive = ac
	adaptiveSet := ac != (oostream.Adaptive{})
	if adaptiveSet && *queries != "" {
		return fmt.Errorf("adaptive disorder control is per-engine; not supported with -queries")
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	// The /debug/state and /debug/latency documents, republished from the
	// processing loop. Neither snapshot call is synchronized with Process,
	// so the HTTP handlers never touch the engine: they read the last
	// document the loop stored.
	var stateDoc atomic.Pointer[oostream.StateSnapshot]
	var latDoc atomic.Pointer[oostream.LatencyReport]
	if *listen != "" {
		reg := oostream.NewObserver()
		flight := oostream.NewFlightRecorder(512)
		cfg.Observer = reg
		cfg.Trace = flight
		state := func() any {
			if s := stateDoc.Load(); s != nil {
				return s
			}
			return nil
		}
		latency := func() any {
			if r := latDoc.Load(); r != nil {
				return r
			}
			return nil
		}
		srv, err := httpx.Listen(*listen, reg, flight, state, latency)
		if err != nil {
			return err
		}
		defer srv.Close()
		// Linger runs before the deferred Close (LIFO), holding the
		// endpoint up for scrapes after a short trace finishes.
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "esprun: lingering %s on http://%s/metrics\n", *linger, srv.Addr())
				time.Sleep(*linger)
			}
		}()
		fmt.Fprintf(os.Stderr, "esprun: observability on http://%s/metrics\n", srv.Addr())
	}

	in := stdin
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	r, closer, err := trace.NewAutoReader(in)
	if err != nil {
		return err
	}
	if closer != nil {
		defer closer.Close()
	}
	printed := 0
	total := 0
	emit := func(matches []oostream.Match) {
		for _, m := range matches {
			total++
			if *quiet || (*maxPrint > 0 && printed >= *maxPrint) {
				continue
			}
			if m.Query != "" {
				fmt.Fprintf(stdout, "[%s] %s\n", m.Query, m)
			} else {
				fmt.Fprintln(stdout, m)
			}
			if *explain && m.Prov != nil {
				fmt.Fprintf(stdout, "  lineage: %s\n", m.Prov)
			}
			printed++
		}
	}

	if *ckptDir != "" && !*resume {
		if entries, err := os.ReadDir(*ckptDir); err == nil && len(entries) > 0 {
			return fmt.Errorf("%s already holds state; pass -resume to continue it (or point at an empty directory)", *ckptDir)
		}
	}
	// A set or a single engine, in memory or under -checkpoint-dir durable:
	// one method set drives all four.
	var en stream
	var name func() string
	var set *oostream.QuerySet
	sc := oostream.SupervisorConfig{Dir: *ckptDir, CheckpointEvery: *ckptEvery}
	if registry != nil {
		qcfg := oostream.QuerySetConfig{
			Strategy: cfg.Strategy, K: cfg.K,
			Provenance: cfg.Provenance, Observer: cfg.Observer, Trace: cfg.Trace,
			Latency: cfg.Latency,
		}
		if *ckptDir != "" {
			set, err = oostream.NewSupervisedQuerySet(qcfg, sc)
		} else {
			set, err = oostream.NewQuerySet(qcfg)
		}
		en, name = set, func() string { return fmt.Sprintf("queryset(%s)×%d", cfg.Strategy, len(registry)) }
	} else {
		var single *oostream.Engine
		if *ckptDir != "" {
			single, err = oostream.NewSupervisedEngine(q, cfg, sc)
		} else {
			single, err = oostream.NewEngine(q, cfg)
		}
		en, name = single, single.Strategy
	}
	if err != nil {
		return err
	}
	defer en.Close()
	for _, nq := range registry {
		if err := set.Register(nq.id, nq.q); err != nil {
			return err
		}
	}
	recovered, err := en.Start()
	if err != nil {
		return err
	}
	emit(recovered)
	publish := func() {
		if *listen == "" {
			return
		}
		if s := en.StateSnapshot(); s != nil {
			stateDoc.Store(s)
		}
		if r := en.LatencyReport(); r != nil {
			latDoc.Store(r)
		}
	}

	// The supervised path needs stable event identity across invocations:
	// trace positions are deterministic, so events without a Seq get their
	// 1-based trace position. On -resume, admission control then drops or
	// deduplicates everything already processed before the crash.
	var pos oostream.Seq
	var batch []oostream.Event
	if *batchSize > 1 {
		batch = make([]oostream.Event, 0, *batchSize)
	}
	drainBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		emit(en.ProcessBatch(batch))
		batch = batch[:0]
		return en.Err()
	}
	for {
		e, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		pos++
		if e.Seq == 0 {
			e.Seq = pos
		}
		if *batchSize > 1 {
			batch = append(batch, e)
			if len(batch) >= *batchSize {
				if err := drainBatch(); err != nil {
					return err
				}
			}
		} else {
			emit(en.Process(e))
			if err := en.Err(); err != nil {
				return err
			}
		}
		// Refresh /debug/state from the processing goroutine (snapshots are
		// not synchronized with Process) at a coarse cadence.
		if pos%64 == 0 && len(batch) == 0 {
			publish()
		}
	}
	if err := drainBatch(); err != nil {
		return err
	}
	emit(en.Flush())
	if err := en.Err(); err != nil {
		return err
	}
	publish()
	if !*quiet && *maxPrint > 0 && total > printed {
		fmt.Fprintf(stdout, "… %d more matches (raise -max-print)\n", total-printed)
	}
	fmt.Fprintf(stdout, "strategy=%s matches=%d %s\n", name(), total, en.Metrics())
	if *latSample > 0 {
		if r := en.LatencyReport(); r != nil {
			printLatency(stdout, r)
		}
	}
	if adaptiveSet || cfg.Strategy == oostream.StrategyHybrid {
		if s := en.StateSnapshot(); s != nil && s.Adaptive != nil {
			a := s.Adaptive
			fmt.Fprintf(stdout, "adaptive: k=%d nominal=%d max=%d resizes=%d shed=%d degraded=%v",
				a.EffectiveK, a.NominalK, a.MaxKObserved, a.Resizes, a.Shedded, a.Degraded)
			if a.Mode != "" {
				fmt.Fprintf(stdout, " mode=%s switches=%d", a.Mode, a.Switches)
			}
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

// printLatency renders the end-of-run wall-clock attribution summary: the
// sample accounting, wall quantiles, the per-stage decomposition in
// pipeline order, and the SLO windows when tracked.
func printLatency(w io.Writer, r *oostream.LatencyReport) {
	fmt.Fprintf(w, "latency: 1/%d sampled=%d abandoned=%d dropped=%d wall{p50=%dµs p95=%dµs p99=%dµs max=%dµs}\n",
		r.SampleEvery, r.SpansSampled, r.SpansAbandoned, r.SpansDropped,
		r.Wall.P50Us, r.Wall.P95Us, r.Wall.P99Us, r.Wall.MaxUs)
	for _, stage := range []string{"buffer", "wal", "construct", "emit"} {
		s, ok := r.Stages[stage]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  stage %-9s n=%d p50=%dµs p95=%dµs max=%dµs sum=%dµs\n",
			stage, s.Count, s.P50Us, s.P95Us, s.MaxUs, s.SumUs)
	}
	if r.SLO != nil {
		for _, win := range r.SLO.Windows {
			fmt.Fprintf(w, "  slo %s: good=%d bad=%d ratio=%.4f burn=%.2f (objective %gms, target %g)\n",
				win.Window, win.Good, win.Bad, win.GoodRatio, win.BurnRate, r.SLO.ObjectiveMs, r.SLO.Target)
		}
	}
}

// stream is the method set esprun drives: what *oostream.Engine and
// *oostream.QuerySet have in common.
type stream interface {
	Start() ([]oostream.Match, error)
	Process(oostream.Event) []oostream.Match
	ProcessBatch([]oostream.Event) []oostream.Match
	Flush() []oostream.Match
	Err() error
	Close() error
	Metrics() oostream.Metrics
	StateSnapshot() *oostream.StateSnapshot
	LatencyReport() *oostream.LatencyReport
}

// namedQuery is one entry of a -queries file.
type namedQuery struct {
	id string
	q  *oostream.Query
}

// readQueries parses a multi-query file: one query per line, blank lines
// and #-comments skipped. A line may carry an explicit id as "id: QUERY
// ..."; otherwise ids are assigned as q1, q2, … by position.
func readQueries(path string) ([]namedQuery, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []namedQuery
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id := fmt.Sprintf("q%d", len(out)+1)
		if !strings.HasPrefix(line, "PATTERN") {
			head, rest, ok := strings.Cut(line, ":")
			if !ok || strings.TrimSpace(head) == "" {
				return nil, fmt.Errorf("%s:%d: want \"PATTERN ...\" or \"id: PATTERN ...\"", path, i+1)
			}
			id, line = strings.TrimSpace(head), strings.TrimSpace(rest)
		}
		q, err := oostream.Compile(line, nil)
		if err != nil {
			return nil, fmt.Errorf("%s:%d (%s): %w", path, i+1, id, err)
		}
		out = append(out, namedQuery{id: id, q: q})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no queries found", path)
	}
	return out, nil
}
