package difftest

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"oostream"
	"oostream/internal/event"
	"oostream/internal/gen"
	"oostream/internal/obsv"
	"oostream/internal/plan"
)

// The instrument-coverage table: for every composition the facade can
// build, one seeded stream runs with every instrument on (Observer, Trace,
// Latency at 1-in-1, Provenance) and with none. Output must be equal
// modulo lineage, and with everything on every series the builder
// registered has moved, the visible series reads on /varz what Metrics()
// returns, the hook saw every emit and retract, every match carries
// lineage, and spans were opened and accounted. This is the
// "instrument forgotten by a wrapper" class as one table: a layer that
// drops its Env, or a builder rule that hands a layer the wrong one, turns
// a row red by name.

const (
	covPattern = "SEQ(A a, !(C n), B b) WHERE a.id = b.id AND a.id = n.id WITHIN 40"
	covQuery   = "PATTERN " + covPattern
	covAgg     = "AGGREGATE COUNT(*) OVER " + covPattern + " GROUP BY a.id"
)

// covStream is a disordered stream over the trial universe with one event
// lacking the partition attribute (which the keyed kernel counts and drops)
// and noise of an irrelevant type.
func covStream() ([]event.Event, event.Time) {
	rng := rand.New(rand.NewSource(16))
	var sorted []event.Event
	ts := event.Time(0)
	for i := 0; i < 240; i++ {
		ts += event.Time(1 + rng.Intn(3))
		typ := [...]string{"A", "B", "A", "B", "C", "D"}[rng.Intn(6)]
		sorted = append(sorted, Ev(typ, ts, event.Seq(i+1), int64(rng.Intn(4)), int64(rng.Intn(valRange))))
	}
	sorted[100].Attrs = slices.DeleteFunc(slices.Clone(sorted[100].Attrs), func(a event.Attr) bool { return a.Name == PartitionAttr })
	arrival := gen.Shuffle(sorted, gen.Disorder{Ratio: 0.3, MaxDelay: 12, Seed: 16})
	return arrival, gen.MaxDelay(arrival)
}

// covInstruments is one "everything on" instrument set. The same set is
// handed to both incarnations of a restarted supervised engine, as a
// process-wide registry and recorder would be.
type covInstruments struct {
	reg *oostream.Observer
	mu  sync.Mutex
	ops map[obsv.Op]int
	// byEngine counts the ops per reporting identity (TraceEvent.Engine),
	// purged sums their OpPurge items.
	byEngine map[string]map[obsv.Op]int
	purged   map[string]uint64
}

func newCovInstruments() *covInstruments {
	return &covInstruments{reg: oostream.NewObserver(), ops: make(map[obsv.Op]int), byEngine: make(map[string]map[obsv.Op]int), purged: make(map[string]uint64)}
}

func (ci *covInstruments) Trace(te obsv.TraceEvent) {
	ci.mu.Lock()
	ci.ops[te.Op]++
	if ci.byEngine[te.Engine] == nil {
		ci.byEngine[te.Engine] = make(map[obsv.Op]int)
	}
	ci.byEngine[te.Engine][te.Op]++
	if te.Op == obsv.OpPurge {
		ci.purged[te.Engine] += uint64(te.N)
	}
	ci.mu.Unlock()
}

// stepCounters pairs each lifecycle op with the counter its step moves.
var stepCounters = []struct {
	op      obsv.Op
	counter func(*obsv.Series) *obsv.Counter
}{
	{obsv.OpAdmit, func(s *obsv.Series) *obsv.Counter { return &s.EventsIn }},
	{obsv.OpDrop, func(s *obsv.Series) *obsv.Counter { return &s.EventsLate }},
	{obsv.OpShed, func(s *obsv.Series) *obsv.Counter { return &s.SheddedEvents }},
	{obsv.OpEmit, func(s *obsv.Series) *obsv.Counter { return &s.Matches }},
	{obsv.OpRetract, func(s *obsv.Series) *obsv.Counter { return &s.Retractions }},
	{obsv.OpCheckpoint, func(s *obsv.Series) *obsv.Counter { return &s.Checkpoints }},
	{obsv.OpSwitch, func(s *obsv.Series) *obsv.Counter { return &s.Switches }},
	{obsv.OpPurge, func(s *obsv.Series) *obsv.Counter { return &s.PurgeCalls }},
}

// unhookedLevee names the series whose admitting layer is a QuerySet's
// levee: it is built without the hook by design (its emits are the queries'
// emits, which each query's engine traces under "qs/<id>"), so the hook sees
// none of its admit, drop, shed, emit or retract steps while the series
// counts them all.
var unhookedLevee = map[string]bool{"queryset": true, "supervised(queryset)": true}

func (ci *covInstruments) config(cfg oostream.Config) oostream.Config {
	cfg.Observer, cfg.Trace, cfg.Provenance = ci.reg, ci, true
	cfg.Latency = oostream.Latency{SampleEvery: 1}
	return cfg
}

func (ci *covInstruments) setConfig(cfg oostream.QuerySetConfig) oostream.QuerySetConfig {
	cfg.Observer, cfg.Trace, cfg.Provenance = ci.reg, ci, true
	cfg.Latency = oostream.Latency{SampleEvery: 1}
	return cfg
}

// covResult is what one run of a row yields.
type covResult struct {
	matches []plan.Match
	lat     *oostream.LatencyReport
	met     oostream.Metrics
}

// covRow is one composition. run builds it — instrumented by ci, or bare
// when ci is nil — and drives the whole stream through it.
type covRow struct {
	name string
	run  func(t *testing.T, ci *covInstruments) covResult
	// series are the names the builder must have registered, all of which
	// must have moved, the visible one (what Metrics reads) first; replays marks rows whose restart re-runs events
	// (their hook sees emits the supervisor then suppresses); buffered marks
	// rows that can hold spans open across a Kill.
	series   []string
	replays  bool
	buffered bool
}

func mustCompile(t *testing.T, src string) *oostream.Query {
	t.Helper()
	q, err := oostream.Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// covRows enumerates the table.
func covRows(t *testing.T, events []event.Event, k event.Time) []covRow {
	var rows []covRow

	// Four strategies × {single, aggregate}.
	for _, strat := range oostream.Strategies() {
		s := string(strat)
		variants := []struct {
			name, query string
			cfg         oostream.Config
			series      []string
		}{
			{"single", covQuery, oostream.Config{}, []string{s}},
			{"aggregate", covAgg, oostream.Config{}, []string{s}},
		}
		for _, v := range variants {
			cfg := v.cfg
			cfg.Strategy, cfg.K = strat, k
			q := mustCompile(t, v.query)
			if _, err := oostream.NewEngine(q, cfg); err != nil {
				t.Fatalf("%s/%s: %v", s, v.name, err)
			}
			rows = append(rows, covRow{
				name:   s + "/" + v.name,
				series: append(v.series, "latency"),
				run: func(t *testing.T, ci *covInstruments) covResult {
					cfg := cfg
					if ci != nil {
						cfg = ci.config(cfg)
					}
					en := oostream.MustNewEngine(q, cfg)
					ms := en.ProcessAll(cloneEvents(events))
					return covResult{matches: ms, lat: en.LatencyReport(), met: en.Metrics()}
				},
			})
		}
	}

	// QuerySet: every registered query runs the native kernel at K=0.
	rows = append(rows, covRow{
		name:   "queryset/native",
		series: []string{"queryset", "qs/pattern", "qs/agg", "latency"},
		run: func(t *testing.T, ci *covInstruments) covResult {
			cfg := oostream.QuerySetConfig{K: k}
			if ci != nil {
				cfg = ci.setConfig(cfg)
			}
			qs := oostream.MustNewQuerySet(cfg)
			covRegister(t, qs.Register)
			ms := qs.ProcessAll(cloneEvents(events))
			return covResult{matches: ms, lat: qs.LatencyReport(), met: qs.Metrics()}
		},
	})

	// Supervised forms, killed and reopened mid-stream. CheckpointEvery does
	// not divide the kill offset, so every restart also replays a WAL tail.
	cut := len(events)/2 + 3
	sc := func(t *testing.T) oostream.SupervisorConfig {
		return oostream.SupervisorConfig{Dir: t.TempDir(), CheckpointEvery: 7, DisableFsync: true}
	}
	supervised := []struct {
		name, query string
		cfg         oostream.Config
		series      []string
		buffered    bool
	}{
		{"native", covQuery, oostream.Config{}, []string{"supervised(native)"}, false},
		{"native/aggregate", covAgg, oostream.Config{}, []string{"supervised(native)"}, false},
		{"kslack", covQuery, oostream.Config{Strategy: oostream.StrategyKSlack}, []string{"supervised(kslack)"}, true},
	}
	for _, v := range supervised {
		cfg := v.cfg
		cfg.K = k
		q := mustCompile(t, v.query)
		rows = append(rows, covRow{
			name:     "supervised/" + v.name,
			series:   append(v.series, "latency"),
			replays:  true,
			buffered: v.buffered,
			run: func(t *testing.T, ci *covInstruments) covResult {
				cfg, sc := cfg, sc(t)
				if ci != nil {
					cfg = ci.config(cfg)
				}
				var res covResult
				for _, span := range [][]event.Event{events[:cut], events[cut:]} {
					en, err := oostream.NewSupervisedEngine(q, cfg, sc)
					if err != nil {
						t.Fatal(err)
					}
					res.matches = append(res.matches, covMust(t)(en.Start())...)
					for _, e := range span {
						res.matches = append(res.matches, en.Process(e)...)
					}
					if len(span) == len(events)-cut {
						res.matches = append(res.matches, en.Flush()...)
						res.lat, res.met = en.LatencyReport(), en.Metrics()
					}
					if err := en.Err(); err != nil {
						t.Fatal(err)
					}
					en.Kill()
				}
				return res
			},
		})
	}
	rows = append(rows, covRow{
		name:     "supervised/queryset",
		series:   []string{"supervised(queryset)", "qs/pattern", "qs/agg", "latency"},
		replays:  true,
		buffered: true, // the shared reorder buffer holds spans
		run: func(t *testing.T, ci *covInstruments) covResult {
			cfg, sc := oostream.QuerySetConfig{K: k}, sc(t)
			if ci != nil {
				cfg = ci.setConfig(cfg)
			}
			var res covResult
			for _, span := range [][]event.Event{events[:cut], events[cut:]} {
				qs, err := oostream.NewSupervisedQuerySet(cfg, sc)
				if err != nil {
					t.Fatal(err)
				}
				covRegister(t, qs.Register) // ignored on the resumed directory: the checkpointed registry wins
				res.matches = append(res.matches, covMust(t)(qs.Start())...)
				for _, e := range span {
					res.matches = append(res.matches, qs.Process(e)...)
				}
				if len(span) == len(events)-cut {
					res.matches = append(res.matches, qs.Flush()...)
					res.lat, res.met = qs.LatencyReport(), qs.Metrics()
				}
				if err := qs.Err(); err != nil {
					t.Fatal(err)
				}
				qs.Kill()
			}
			return res
		},
	})
	return rows
}

func covRegister(t *testing.T, register func(string, *oostream.Query) error) {
	t.Helper()
	for _, reg := range [][2]string{{"pattern", covQuery}, {"agg", covAgg}} {
		if err := register(reg[0], mustCompile(t, reg[1])); err != nil {
			t.Fatal(err)
		}
	}
}

func covMust(t *testing.T) func([]plan.Match, error) []plan.Match {
	return func(ms []plan.Match, err error) []plan.Match {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
}

func cloneEvents(events []event.Event) []event.Event {
	return append([]event.Event(nil), events...)
}

func TestInstrumentCoverage(t *testing.T) {
	events, k := covStream()
	rows := covRows(t, events, k)
	if len(rows) < 8+1+4 {
		t.Fatalf("table has %d rows; a composition stopped building", len(rows))
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			off := row.run(t, nil)
			ci := newCovInstruments()
			on := row.run(t, ci)

			if len(on.matches) == 0 {
				t.Fatal("stream produced no output on this composition")
			}
			if off.lat != nil {
				t.Error("uninstrumented run has a latency report")
			}
			bare := make([]plan.Match, len(on.matches))
			inserts, retracts := 0, 0
			for i, m := range on.matches {
				if m.Prov == nil {
					t.Fatalf("match %d (%s) carries no lineage", i, m.Key())
				}
				if m.Kind == plan.Retract {
					retracts++
				} else {
					inserts++
				}
				bare[i] = m
				bare[i].Prov = nil
			}
			if diff := compare(&outcome{out: off.matches}, &outcome{out: bare}, exact); diff != "" {
				t.Errorf("instruments changed the output (first run bare, second instrumented): %s", diff)
			}

			// Every series the builder registered, and only those, and each moved.
			if got := ci.reg.Names(); !sameNames(got, row.series) {
				t.Errorf("registered series %v, want %v", got, row.series)
			}
			moved := ci.reg.Varz()["engines"].(map[string]any)
			untouched := obsv.NewRegistry()
			for _, name := range row.series {
				untouched.Series(name)
			}
			for name, still := range untouched.Varz()["engines"].(map[string]any) {
				if reflect.DeepEqual(moved[name], still) {
					t.Errorf("series %q never moved", name)
				}
			}

			// The scrape agrees with Metrics(): every counter and gauge of the
			// visible series reads on /varz what Metrics() holds in the field of
			// the same name — the work of a layer beneath included.
			visible := moved[row.series[0]].(map[string]any)
			met := reflect.ValueOf(on.met)
			for _, in := range obsv.Instruments() {
				if in.Varz == "" {
					continue
				}
				field := in.SnapshotField()
				if got, want := asInt(met.FieldByName(field)), asInt(reflect.ValueOf(visible[in.Varz])); got != want {
					t.Errorf("Metrics().%s = %d, /varz %s of %q = %d", field, got, in.Varz, row.series[0], want)
				}
			}

			// The hook saw every emit and retract.
			gotEmit, gotRetract := ci.ops[obsv.OpEmit], ci.ops[obsv.OpRetract]
			if row.replays {
				// Replay re-runs events whose matches the supervisor then
				// suppresses as already delivered; the hook saw those too.
				var suppressed uint64
				ci.reg.Each(func(s *obsv.Series) { suppressed += s.DuplicatesSuppressed.Load() })
				if want := inserts + retracts + int(suppressed); gotEmit+gotRetract != want {
					t.Errorf("hook saw %d emits + %d retracts, want %d delivered + %d suppressed", gotEmit, gotRetract, inserts+retracts, suppressed)
				}
			} else if gotEmit != inserts || gotRetract != retracts {
				t.Errorf("hook saw %d emits / %d retracts, output has %d / %d", gotEmit, gotRetract, inserts, retracts)
			}
			if ci.ops[obsv.OpAdmit] == 0 {
				t.Error("hook saw no admissions")
			}

			// Per series, each step's counter equals the hook's count of its
			// op under that series' name: the two are one report.
			ci.reg.Each(func(s *obsv.Series) {
				for _, sc := range stepCounters {
					got, want := uint64(ci.byEngine[s.Name()][sc.op]), sc.counter(s).Load()
					if unhookedLevee[s.Name()] && sc.op != obsv.OpCheckpoint {
						want = 0
					}
					if got != want {
						t.Errorf("series %q: hook saw %d %s ops, counter reads %d", s.Name(), got, sc.op, sc.counter(s).Load())
					}
				}
				if got, want := ci.purged[s.Name()], s.Purged.Load(); got != want {
					t.Errorf("series %q: the hook's purge ops reclaimed %d items, Purged reads %d", s.Name(), got, want)
				}
			})

			// Spans were opened for every offered event and are accounted.
			lr := on.lat
			if lr == nil || lr.SpansSampled != uint64(len(events)) {
				t.Fatalf("latency report %+v, want %d sampled spans", lr, len(events))
			}
			closed := lr.Wall.Count + lr.SpansAbandoned
			if closed > lr.SpansSampled || (!row.buffered && closed != lr.SpansSampled) {
				t.Errorf("span ledger: %d closed + %d abandoned of %d opened", lr.Wall.Count, lr.SpansAbandoned, lr.SpansSampled)
			}
			if lr.Stages["construct"].Count == 0 {
				t.Errorf("no span reached a construction boundary: %v", lr.Stages)
			}
		})
	}
}

func sameNames(got, want []string) bool {
	got, want = slices.Clone(got), slices.Clone(want)
	slices.Sort(got)
	slices.Sort(want)
	return slices.Equal(got, want)
}

// asInt reads a counter, gauge or flag as an int64.
func asInt(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case reflect.Uint, reflect.Uint64:
		return int64(v.Uint())
	default:
		return v.Int()
	}
}
