// Package difftest is the randomized differential harness that guards the
// library's central claim: every match is emitted exactly once, however
// events are ordered within K. A Case is a query, a disorder bound and an
// arrival order; its truth is the brute-force oracle on the sorted stream,
// by I1 the normative semantics. A composition says what to build, how to
// feed it the case and what its output must equal (drive.go); a Mode is a
// named list of compositions (modes.go); one function, drive, runs them,
// and Run(mode, c) returns the first divergence. A trial is a pure function
// of its seed (Generate) and a verdict of its mode and case, so a failure
// reproduces from a printed seed or, after Shrink, from a minimized
// Go-source literal to check in as a regression (regress_test.go).
package difftest

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"

	"oostream"
	"oostream/internal/core"
	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/oracle"
	"oostream/internal/plan"
)

// PartitionAttr is the attribute every generated event carries and
// partitionable generated queries link on.
const PartitionAttr = "id"

// Case is one differential trial: a query, a disorder bound, and a
// concrete arrival order. Sorted truth is derived, not stored — the
// arrival order IS the test input. Event Seq numbers give events identity
// across orders and must be unique; Generate assigns them in sorted order.
type Case struct {
	// Seed reproduces the case via Generate; 0 for hand-written cases.
	Seed int64
	// Query is the pattern query source text.
	Query string
	// K is the disorder bound configured on every bounded strategy. It
	// must dominate the arrival order's real disorder (gen.MaxDelay).
	K event.Time
	// Arrival is the stream in arrival order.
	Arrival []event.Event
}

// Failure describes a divergence found by Run.
type Failure struct {
	Mode Mode
	// Case is the failing trial (possibly shrunk).
	Case Case
	// Check names the composition that diverged, with a suffix for a
	// property beyond its output: "-lineage", "-trace" or "-counts".
	Check string
	// Diff is the difference (wanted vs got) or error text.
	Diff string
	// Truth is the wanted match count, for the report.
	Truth int
}

// Error renders the failure on one line.
func (f *Failure) Error() string {
	return fmt.Sprintf("%s seed %d: check %q diverged (%d truth matches): %s", f.Mode, f.Case.Seed, f.Check, f.Truth, f.Diff)
}

// A Mode is a named list of compositions; modes.go says what each holds.
type Mode string

const (
	Plain    Mode = "plain"
	Batch    Mode = "batch"
	Crash    Mode = "crash"
	Multi    Mode = "multi"
	Adaptive Mode = "adaptive"
	Agg      Mode = "agg"
)

// Modes lists every mode a soak runs.
var Modes = []Mode{Plain, Batch, Crash, Multi, Adaptive, Agg}

// batchCrash is go test's mode for batches killed and redelivered; Run and
// Shrink know it, so its failures replay and shrink like any other.
const batchCrash Mode = "batch-crash"

var modes = map[Mode]func(*trial) []composition{
	Plain: plainMode, Batch: batchMode, Crash: crashMode, Multi: multiMode, Adaptive: adaptiveMode, Agg: aggMode,
	batchCrash: batchCrashMode,
}

// Generate draws the mode's trial for a seed: GenerateAgg's under Agg,
// GenerateFaulty's for every even seed under Crash, Generate's otherwise.
func (m Mode) Generate(seed int64) Case {
	switch {
	case m == Agg:
		return GenerateAgg(seed)
	case m == Crash && seed%2 == 0:
		return GenerateFaulty(seed)
	}
	return Generate(seed)
}

// trial is one case under one mode: the registry its compositions build
// from — q0 is the case's query; a Multi trial adds three drawn from the
// seed alone, so shrinking the arrival keeps them — and the runs and truths
// computed so far, so each is computed once.
type trial struct {
	mode Mode
	c    Case
	// firsts is the arrival, each Seq's first occurrence only: what
	// admission leaves of a stream with redeliveries.
	firsts  []event.Event
	queries []registered
	// named holds the mode's compositions, runs their outcomes so far.
	named  map[string]composition
	runs   map[string]*outcome
	truths map[int][]plan.Match
	// exactly names the runs another composition compares element-wise,
	// whose traces are kept to be compared too.
	exactly map[string]bool
	// universe indexes the arrival by Seq for lineage citations.
	universe map[event.Seq]event.Event
}

type registered struct {
	id string
	p  *plan.Plan
	q  *oostream.Query
}

// Run drives every composition of the mode over the case and returns the
// first divergence, or nil when all agree. It is a pure function of the
// mode and the case (temporary directories aside), which is what makes
// shrinking sound. A panic is a failure too, of check "panic", naming the
// composition that raised it ("setup" before the first).
func Run(mode Mode, c Case) (f *Failure) {
	t := &trial{mode: mode, c: c, named: map[string]composition{}, runs: map[string]*outcome{}, truths: map[int][]plan.Match{}, exactly: map[string]bool{}}
	at := "setup"
	defer func() {
		if r := recover(); r != nil {
			f = t.fail("panic", fmt.Sprintf("%s: %v", at, r), nil)
		}
	}()
	if modes[mode] == nil {
		return t.fail("mode", fmt.Sprintf("no mode %q", mode), nil)
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5e7a11))
	for i := 0; i < 1 || mode == Multi && i < 4; i++ {
		src := c.Query
		if i > 0 {
			src, _ = genQuery(rng)
		}
		p, err := plan.ParseAndCompile(src, Schema())
		var q *oostream.Query
		if err == nil {
			q, err = oostream.Compile(src, Schema())
		}
		if err != nil {
			return t.fail(fmt.Sprintf("compile/q%d", i), err.Error(), nil)
		}
		t.queries = append(t.queries, registered{fmt.Sprintf("q%d", i), p, q})
	}
	seen := make(map[event.Seq]bool, len(c.Arrival))
	for _, e := range c.Arrival {
		if e.Seq == 0 || !seen[e.Seq] {
			seen[e.Seq] = true
			t.firsts = append(t.firsts, e)
		}
	}
	if mode == Plain {
		if err := checkDueOrders(t.queries[0].p, c); err != nil {
			return t.fail("due-orders", err.Error(), nil)
		}
	}
	// A want names a composition listed before, so a misspelt or misplaced
	// one fails the trial instead of dropping its check.
	comps := modes[mode](t)
	for _, m := range comps {
		if _, ok := t.named[m.want]; !ok && m.want != "" && m.want != truth {
			return t.fail(m.name, fmt.Sprintf("wants %q, which no composition before it is named", m.want), nil)
		}
		if _, ok := t.named[m.name]; ok || m.name == truth {
			return t.fail(m.name, "named twice", nil)
		}
		t.named[m.name] = m
		if m.how == exact {
			t.exactly[m.want] = true
		}
	}
	for _, m := range comps {
		at = m.name
		if f := t.check(m); f != nil {
			return f
		}
	}
	return nil
}

func (t *trial) fail(check, diff string, want []plan.Match) *Failure {
	return &Failure{Mode: t.mode, Case: t.c, Check: check, Diff: diff, Truth: len(want)}
}

// check drives m and holds its run to what m wants.
func (t *trial) check(m composition) *Failure {
	o, err := t.drive(m)
	if err != nil {
		return t.fail(m.name, err.Error(), nil)
	}
	t.runs[m.name] = o
	want, how := t.runs[m.want], m.how
	if m.want == truth {
		want, how = &outcome{out: t.truth(m, o)}, net
	} else if t.named[m.want].set != nil && m.set == nil {
		want = &outcome{out: share(want.out, t.queries[m.query].id)}
	}
	if m.want != "" {
		if diff := compare(want, o, how); diff != "" {
			return t.fail(m.name, diff, want.out)
		}
		if how == exact && want.ops != nil && o.ops != nil && !maps.Equal(want.ops, o.ops) {
			return t.fail(m.name+"-trace", firstDiff(want.ops.lines(), o.ops.lines()), want.out)
		}
	}
	if m.lineage {
		if t.universe == nil {
			t.universe = seqUniverse(t.c.Arrival)
		}
		for i, r := range t.queries {
			ms := o.out
			if m.set != nil {
				ms = share(o.out, r.id)
			} else if i != m.query {
				continue
			}
			if msg := validateLineage(r.p, t.universe, ms); msg != "" {
				return t.fail(m.name+"-lineage", msg, nil)
			}
		}
	}
	// The trace and the counters agree on every rejection.
	if o.dropped != nil && (int(o.metrics.EventsLate) != len(o.dropped) || int(o.metrics.SheddedEvents) != len(o.shed)) {
		return t.fail(m.name+"-counts", fmt.Sprintf("late counter %d vs %d traced drops, shed counter %d vs %d traced sheds",
			o.metrics.EventsLate, len(o.dropped), o.metrics.SheddedEvents, len(o.shed)), nil)
	}
	if m.input != nil && len(o.dropped)+len(o.shed) > 0 {
		return t.fail(m.name, fmt.Sprintf("rejected %d of the %d events it was fed at K=%d", len(o.dropped)+len(o.shed), len(o.fed), o.k), nil)
	}
	return nil
}

// truth is what m, wanting the truth, must equal: per query it runs, the
// oracle (aggTruth for an aggregate) over the events that query saw — each
// Seq's first arrival less what the run's trace says it dropped or shed,
// and on a live query what the shared buffer released to it (seen). A
// QuerySet's is tagged with the query ids.
func (t *trial) truth(m composition, o *outcome) []plan.Match {
	events := o.admitted(t.firsts)
	if m.set == nil {
		return t.oracle(m.query, events)
	}
	ids, out := m.queries, []plan.Match(nil)
	if m.registers != nil {
		ids = append(slices.Clone(ids), lateQuery)
	}
	for _, i := range ids {
		for _, x := range t.oracle(i, t.seen(m, i, events)) {
			x.Query = t.queries[i].id
			out = append(out, x)
		}
	}
	return out
}

// oracle is query i's normative output over events, computed once per case
// over the whole deduplicated arrival.
func (t *trial) oracle(i int, events []event.Event) []plan.Match {
	whole := len(events) == len(t.firsts)
	if ms, ok := t.truths[i]; ok && whole {
		return ms
	}
	sorted := slices.Clone(events)
	event.SortByTime(sorted)
	p := t.queries[i].p
	ms := oracle.Matches(p, sorted)
	if p.Agg != nil {
		ms = aggTruth(p, sorted)
	}
	if whole {
		t.truths[i] = ms
	}
	return ms
}

// lateQuery and leavingQuery are the registry entries a live composition
// registers and unregisters mid-stream.
const lateQuery, leavingQuery = 3, 1

// seen is what query i of a live composition saw of events: the leaving
// query what the shared buffer released before its Unregister, the late one
// the rest. Released means offered before that position and at or below
// the watermark, which is monotone: the largest timestamp offered less K,
// joined with every heartbeat m issued up to then.
func (t *trial) seen(m composition, i int, events []event.Event) []event.Event {
	var at int
	switch {
	case i == lateQuery && m.registers != nil:
		at = m.registers[0]
	case i == leavingQuery && m.unregisters != nil:
		at = m.unregisters[0]
	default:
		return events
	}
	wm, future, pos := minTime, minFuture(t.firsts), map[event.Seq]int{}
	for j, e := range t.firsts {
		pos[e.Seq] = j
		if j < at {
			wm = max(wm, e.TS-t.c.K)
		}
	}
	for _, b := range m.beats {
		if b <= at && future[b] != maxTime {
			wm = max(wm, future[b])
		}
	}
	return slices.DeleteFunc(slices.Clone(events), func(e event.Event) bool {
		return (pos[e.Seq] < at && e.TS <= wm) == (i == lateQuery)
	})
}

// checkDueOrders runs the kernel under both emission policies over the
// arrival, purging eight times as often as the default so that a short
// trial sees several passes, and checks with the stream admitted and not
// yet flushed that its expiry orders index exactly the live stack
// instances, buffered negatives and vulnerable matches: an entry lost on
// any insert path would strand state that no purge pass reaches again.
func checkDueOrders(p *plan.Plan, c Case) error {
	for _, emit := range []core.EmitPolicy{core.SealThenEmit, core.EmitThenRetract} {
		en, err := core.New(p, core.Options{K: c.K, Emit: emit, PurgeEvery: 8})
		if err != nil {
			return err
		}
		for _, e := range c.Arrival {
			en.Process(e)
		}
		if err := en.CheckDue(); err != nil {
			return fmt.Errorf("%s: %w", emit, err)
		}
	}
	return nil
}

// cmp says how compare holds two outputs equal.
type cmp uint8

const (
	// net: per query, as multisets of keys with retractions applied.
	net cmp = iota
	// keys: in emission order, by kind, key and query.
	keys
	// exact: in emission order, every field, lineage dereferenced.
	exact
	// content: exact as a multiset, less the emission instant (EmitSeq,
	// EmitClock, lineage's EmitClock and Traversed) and the query tag.
	content
)

// compare describes the first difference between want's output and got's,
// or returns "". Under net it counts each query's keys, retractions
// subtracted. Otherwise runs that agree match for match (reflect.DeepEqual
// follows Prov and InvalidatedBy) are equal; any others are rendered a line
// a match, sorted under content, lineage dereferenced so that pointer
// identity never leaks in, and compared line for line.
func compare(want, got *outcome, how cmp) string {
	if how == net {
		w, g := count(want.out), count(got.out)
		if maps.Equal(w, g) {
			return ""
		}
		return firstDiff(w.lines(), g.lines())
	}
	if slices.EqualFunc(want.out, got.out, func(w, g plan.Match) bool {
		if how == keys {
			return w.Kind == g.Kind && w.Query == g.Query && w.Key() == g.Key()
		}
		if how == content {
			w, g = withoutInstant(w), withoutInstant(g)
		}
		return reflect.DeepEqual(w, g)
	}) {
		return ""
	}
	return firstDiff(render(want.out, how), render(got.out, how))
}

// withoutInstant is m less what content ignores: its emission instant
// (EmitSeq, EmitClock, lineage's EmitClock and Traversed) and query tag.
func withoutInstant(m plan.Match) plan.Match {
	m.EmitSeq, m.EmitClock, m.Query = 0, 0, ""
	if m.Prov != nil {
		rec := *m.Prov
		rec.EmitClock, rec.Traversed = 0, 0
		m.Prov = &rec
	}
	return m
}

func render(ms []plan.Match, how cmp) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = renderMatch(m, how)
	}
	if how == content {
		sort.Strings(out)
	}
	return out
}

// tally counts matches per query and key, retractions subtracted.
type tally map[[2]string]int

func count(ms []plan.Match) tally {
	n := tally{}
	for _, m := range ms {
		k := [2]string{m.Query, m.Key()}
		if m.Kind == plan.Retract {
			n[k]--
		} else {
			n[k]++
		}
		if n[k] == 0 {
			delete(n, k)
		}
	}
	return n
}

func (n tally) lines() []string {
	var out []string
	for k, c := range n {
		out = append(out, fmt.Sprintf("%s %s ×%d", k[0], k[1], c))
	}
	sort.Strings(out)
	return out
}

func renderMatch(m plan.Match, how cmp) string {
	if how == keys {
		return m.Kind.String() + " " + m.Key() + " " + m.Query
	}
	if how == content {
		m = withoutInstant(m)
	}
	prov := "<nil>"
	if r := m.Prov; r != nil {
		rec, inv := *r, "<nil>"
		if rec.InvalidatedBy != nil {
			inv = fmt.Sprintf("%+v", *rec.InvalidatedBy)
		}
		rec.InvalidatedBy = nil
		prov = fmt.Sprintf("{%+v invalidatedBy=%s}", rec, inv)
	}
	return fmt.Sprintf("%s fields=%v emitted=%d@%d query=%q prov=%s", m, m.Fields, m.EmitSeq, m.EmitClock, m.Query, prov)
}

// firstDiff describes the first difference of two rendered outputs, or
// returns "".
func firstDiff(want, got []string) string {
	for i := 0; i < min(len(want), len(got)); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("line %d differs:\n  want: %s\n  got:  %s", i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("want %d lines, got %d", len(want), len(got))
	}
	return ""
}

// share is query id's part of a QuerySet's output, untagged.
func share(ms []plan.Match, id string) []plan.Match {
	var out []plan.Match
	for _, x := range ms {
		if x.Query == id {
			x.Query = ""
			out = append(out, x)
		}
	}
	return out
}

// opBag is a multiset of trace operations. TraceEvent is a comparable
// struct of scalars, so it keys a map directly; counting collapses
// ordering, which batch execution legitimately perturbs (an event's drain
// may run while a later event has already been admitted).
type opBag map[obsv.TraceEvent]int

// lines renders the bag for firstDiff, sorted.
func (b opBag) lines() []string {
	var out []string
	for te, n := range b {
		out = append(out, fmt.Sprintf("%s ×%d", te, n))
	}
	sort.Strings(out)
	return out
}
