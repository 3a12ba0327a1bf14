// Package plan lowers an analyzed query into the executable form shared by
// every engine (in-order baseline, native out-of-order, speculative) and by
// the brute-force oracle:
//
//   - positive sequence steps with their *local* predicates (conjuncts
//     referencing exactly one positive variable), applied at insertion time
//     to keep the active instance stacks small;
//   - cross predicates (conjuncts over two or more positive variables),
//     indexed by referenced slot so enumeration can prune partial bindings
//     as soon as every referenced slot is bound, in any binding order —
//     out-of-order construction binds slots middle-out, so a fixed
//     evaluation schedule would not do;
//   - negation steps anchored to their gap, each with local predicates on
//     the negative event and cross predicates relating it to the positive
//     binding;
//   - the window and the RETURN projection.
package plan

import (
	"fmt"

	"oostream/internal/event"
	"oostream/internal/predicate"
	"oostream/internal/query"
)

// Plan is a compiled, immutable query plan. It is safe for concurrent use.
type Plan struct {
	// Positives are the positive sequence steps in order.
	Positives []PosStep
	// Negatives are the negation steps.
	Negatives []NegStep
	// Cross are predicates spanning two or more positive slots.
	Cross []CrossPred
	// CrossBySlot maps each positive slot to the indices (into Cross) of
	// predicates referencing it.
	CrossBySlot [][]int
	// Window is the WITHIN length in logical milliseconds.
	Window event.Time
	// Return is the projection; empty means no RETURN clause.
	Return []ReturnCol
	// ConstFalse is set when a constant conjunct is false: no match can
	// ever be produced.
	ConstFalse bool
	// Source is the canonical query text.
	Source string
	// EqLinks records same-attribute equality conjuncts between positive
	// slots (a.id = b.id), used to decide key-partitionability.
	EqLinks []EqLink
	// NegEqLinks records same-attribute equalities between a negation and
	// a positive slot.
	NegEqLinks []NegEqLink
	// PartitionKey is the attribute engines should partition their state
	// by, chosen automatically at compile time (see autoPartitionKey), or
	// "" when the query is not partitionable by any equality-linked
	// attribute.
	PartitionKey string
	// Agg is the compiled AGGREGATE clause, or nil for a plain pattern
	// query. When set, engines wrap their match stream in the windowed
	// aggregation operator and emit aggregate matches (Match.Agg) instead.
	Agg *AggSpec

	typeIndex    map[string][]int
	negTypeIndex map[string][]int
}

// EqLink is an equality v_i.Attr = v_j.Attr between positive slots.
type EqLink struct {
	SlotA, SlotB int
	Attr         string
	// CrossIdx is the index into Plan.Cross of the conjunct this link was
	// derived from; engines that partition state by Attr may skip it as
	// structurally pre-satisfied.
	CrossIdx int
}

// NegEqLink is an equality between a negation's variable and a positive
// slot on the same attribute.
type NegEqLink struct {
	NegIdx int
	Slot   int
	Attr   string
	// CrossIdx is the index into Negatives[NegIdx].Cross of the conjunct
	// this link was derived from.
	CrossIdx int
}

// PosStep is one positive component of the sequence.
type PosStep struct {
	// Type is the event type to match.
	Type string
	// Var is the bound variable name.
	Var string
	// Local are single-event predicates, evaluated with the candidate
	// event in slot 0.
	Local []*predicate.Compiled
}

// NegStep is one negated component.
type NegStep struct {
	// Type is the event type of the negative component.
	Type string
	// Var is the negative variable name.
	Var string
	// GapAfter is the number of positive components preceding the
	// negation (0 = leading, len(Positives) = trailing).
	GapAfter int
	// Local are single-event predicates over the negative event (slot 0).
	Local []*predicate.Compiled
	// Cross relate the negative event to the positive binding. They are
	// compiled against a binding of len(Positives)+1 slots, the negative
	// event in the last slot.
	Cross []*predicate.Compiled
}

// CrossPred is a compiled predicate over multiple positive slots.
type CrossPred struct {
	Pred *predicate.Compiled
	// Mask is the referenced-slot bitmask.
	Mask uint64
}

// ReturnCol is one projected output column.
type ReturnCol struct {
	Name string
	Expr *predicate.Compiled
}

// Compile lowers an analyzed query.
func Compile(a *query.Analyzed) (*Plan, error) {
	n := len(a.Positives)
	p := &Plan{
		Window:       a.Query.Within,
		Source:       a.Query.String(),
		CrossBySlot:  make([][]int, n),
		typeIndex:    make(map[string][]int),
		negTypeIndex: make(map[string][]int),
	}
	for i, c := range a.Positives {
		p.Positives = append(p.Positives, PosStep{Type: c.Type, Var: c.Var})
		p.typeIndex[c.Type] = append(p.typeIndex[c.Type], i)
	}
	for i, neg := range a.Negatives {
		p.Negatives = append(p.Negatives, NegStep{
			Type:     neg.Component.Type,
			Var:      neg.Component.Var,
			GapAfter: neg.GapAfter,
		})
		p.negTypeIndex[neg.Component.Type] = append(p.negTypeIndex[neg.Component.Type], i)
	}

	if err := p.distributeWhere(a); err != nil {
		return nil, err
	}
	if err := p.compileReturn(a); err != nil {
		return nil, err
	}
	if a.Query.Agg != nil {
		if err := p.compileAggregate(a); err != nil {
			return nil, err
		}
	}
	p.PartitionKey = p.autoPartitionKey()
	return p, nil
}

// distributeWhere splits the WHERE clause into local, cross, negative, and
// constant conjuncts.
func (p *Plan) distributeWhere(a *query.Analyzed) error {
	for _, conj := range query.Conjuncts(a.Query.Where) {
		vars := query.Vars(conj)
		var posVars, negVars []string
		for v := range vars {
			if _, ok := a.VarPosition[v]; ok {
				posVars = append(posVars, v)
			} else {
				negVars = append(negVars, v)
			}
		}
		switch {
		case len(negVars) > 1:
			return fmt.Errorf("predicate %s at %s references multiple negated variables; relate each negation to positives separately", conj, conj.Pos())
		case len(negVars) == 1:
			if err := p.addNegativePred(a, conj, negVars[0]); err != nil {
				return err
			}
		case len(posVars) == 0:
			if err := p.addConstPred(conj); err != nil {
				return err
			}
		case len(posVars) == 1:
			if err := p.addLocalPred(a, conj, posVars[0]); err != nil {
				return err
			}
		default:
			if err := p.addCrossPred(a, conj); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Plan) addConstPred(conj query.Expr) error {
	c, err := predicate.Compile(conj, func(string) (int, bool) { return 0, false })
	if err != nil {
		return err
	}
	ok, err := c.EvalBool(nil)
	if err != nil {
		return fmt.Errorf("constant predicate %s: %w", conj, err)
	}
	if !ok {
		p.ConstFalse = true
	}
	return nil
}

func (p *Plan) addLocalPred(a *query.Analyzed, conj query.Expr, varName string) error {
	// Local predicates are evaluated against a single-event binding.
	c, err := predicate.Compile(conj, func(v string) (int, bool) {
		if v == varName {
			return 0, true
		}
		return 0, false
	})
	if err != nil {
		return err
	}
	pos := a.VarPosition[varName]
	p.Positives[pos].Local = append(p.Positives[pos].Local, c)
	return nil
}

func (p *Plan) addCrossPred(a *query.Analyzed, conj query.Expr) error {
	c, err := predicate.Compile(conj, func(v string) (int, bool) {
		pos, ok := a.VarPosition[v]
		return pos, ok
	})
	if err != nil {
		return err
	}
	idx := len(p.Cross)
	p.Cross = append(p.Cross, CrossPred{Pred: c, Mask: c.Mask()})
	for _, slot := range c.Refs() {
		p.CrossBySlot[slot] = append(p.CrossBySlot[slot], idx)
	}
	if varA, varB, attr, ok := sameAttrEquality(conj); ok {
		p.EqLinks = append(p.EqLinks, EqLink{
			SlotA:    a.VarPosition[varA],
			SlotB:    a.VarPosition[varB],
			Attr:     attr,
			CrossIdx: idx,
		})
	}
	return nil
}

// sameAttrEquality recognizes conjuncts of the form x.attr = y.attr (same
// attribute on both sides). attr is the name table's string, so the
// PartitionKey chosen from the links is one too.
func sameAttrEquality(conj query.Expr) (varA, varB, attr string, ok bool) {
	b, isBin := conj.(*query.BinaryExpr)
	if !isBin || b.Op != query.OpEq {
		return "", "", "", false
	}
	l, lok := b.Left.(*query.AttrRef)
	r, rok := b.Right.(*query.AttrRef)
	if !lok || !rok || l.Attr != r.Attr {
		return "", "", "", false
	}
	return l.Var, r.Var, event.Intern(l.Attr), true
}

func (p *Plan) addNegativePred(a *query.Analyzed, conj query.Expr, negVar string) error {
	negIdx := a.NegVarIndex[negVar]
	negSlot := len(p.Positives)
	vars := query.Vars(conj)
	localOnly := len(vars) == 1 // references only the negative variable
	if localOnly {
		c, err := predicate.Compile(conj, func(v string) (int, bool) {
			if v == negVar {
				return 0, true
			}
			return 0, false
		})
		if err != nil {
			return err
		}
		p.Negatives[negIdx].Local = append(p.Negatives[negIdx].Local, c)
		return nil
	}
	c, err := predicate.Compile(conj, func(v string) (int, bool) {
		if v == negVar {
			return negSlot, true
		}
		pos, ok := a.VarPosition[v]
		return pos, ok
	})
	if err != nil {
		return err
	}
	p.Negatives[negIdx].Cross = append(p.Negatives[negIdx].Cross, c)
	if varA, varB, attr, ok := sameAttrEquality(conj); ok {
		posVar := varA
		if varA == negVar {
			posVar = varB
		}
		if pos, isPos := a.VarPosition[posVar]; isPos {
			p.NegEqLinks = append(p.NegEqLinks, NegEqLink{
				NegIdx:   negIdx,
				Slot:     pos,
				Attr:     attr,
				CrossIdx: len(p.Negatives[negIdx].Cross) - 1,
			})
		}
	}
	return nil
}

// PartitionableBy reports whether the plan's matches are confined to one
// partition when the stream is hash-partitioned on the given attribute:
// the same-attribute equality conjuncts must connect every positive
// component into one group, and every negation must be equality-linked on
// the attribute to some positive. Under that condition a partitioned run
// over shards produces exactly the unpartitioned result set.
func (p *Plan) PartitionableBy(attr string) bool {
	n := len(p.Positives)
	if n == 0 {
		return false
	}
	if n == 1 && len(p.Negatives) == 0 {
		return true
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range p.EqLinks {
		if l.Attr == attr {
			parent[find(l.SlotA)] = find(l.SlotB)
		}
	}
	root := find(0)
	for i := 1; i < n; i++ {
		if find(i) != root {
			return false
		}
	}
	linked := make([]bool, len(p.Negatives))
	for _, l := range p.NegEqLinks {
		if l.Attr == attr {
			linked[l.NegIdx] = true
		}
	}
	for _, ok := range linked {
		if !ok {
			return false
		}
	}
	return true
}

// autoPartitionKey picks the attribute the engines should key their state
// by: among the attributes appearing in EqLinks for which the plan is
// PartitionableBy, the one connecting the most slot pairs wins; ties break
// lexicographically, keeping the choice deterministic. "" when no
// equality-linked attribute partitions the plan (single-component queries
// without equality links gain nothing from keying and stay unkeyed).
func (p *Plan) autoPartitionKey() string {
	counts := make(map[string]int)
	for _, l := range p.EqLinks {
		counts[l.Attr]++
	}
	best := ""
	for attr, n := range counts {
		if !p.PartitionableBy(attr) {
			continue
		}
		if best == "" || n > counts[best] || (n == counts[best] && attr < best) {
			best = attr
		}
	}
	return best
}

// KeyOf extracts the canonical partition-key value of an event for the
// given attribute, resolving the "ts" pseudo-attribute exactly as predicate
// evaluation does (payload attribute first, timestamp fallback). ok is
// false when the event carries no such key, or the key is NaN: for a plan
// partitioned on the attribute, such an event cannot participate in any
// match (the key equality predicate would fail on it — NaN equals nothing,
// itself included). As a map key a NaN Value would compare by bit pattern
// and group events the equality rejects, so it must not become one.
func KeyOf(e event.Event, attr string) (event.Value, bool) {
	if v, ok := e.Attr(attr); ok {
		if f, _ := v.AsFloat(); f != f {
			return event.Value{}, false
		}
		return v.MapKey(), true
	}
	if attr == predicate.TSAttr {
		return event.Int(e.TS), true
	}
	return event.Value{}, false
}

// CrossView is a slot-indexed view over a subset of the plan's cross
// predicates, scheduled for the middle-out construction walk. Engines that
// prove some predicates structurally satisfied (key-partitioned state
// pre-satisfies the key equalities) evaluate construction through a view
// excluding them; a nil-skip view holds the full predicate set.
//
// A walk triggered at position t binds t first, then t−1 … 0, then
// t+1 … n−1, so it visits the candidates of every slot p < t−1, p > t+1 and
// (when t > 0) p = t+1 once per binding of the slots between. A predicate
// over exactly {t, p} has one verdict per (trigger, candidate) however
// often the candidate comes up: the view hoists those out of SatisfiedAt
// into Hoisted, for the walk to evaluate on a candidate's first visit and
// remember. Predicates between two non-trigger slots (patterns of four or
// more steps) are not hoisted.
type CrossView struct {
	cross []CrossPred
	// bySlot[t][p] lists what SatisfiedAt evaluates when slot p binds in a
	// walk triggered at t; hoisted[t][p] lists what it leaves to the walk.
	// hoisted[t] is nil, and bySlot[t] the plain per-slot index, for a
	// trigger position with nothing to hoist.
	bySlot  [][][]int
	hoisted [][][]int
}

// CrossView builds a view excluding the cross predicates (by index into
// Plan.Cross) for which skip returns true. A nil skip keeps all.
func (p *Plan) CrossView(skip func(crossIdx int) bool) *CrossView {
	n := len(p.CrossBySlot)
	base := make([][]int, n)
	for slot, idxs := range p.CrossBySlot {
		for _, idx := range idxs {
			if skip == nil || !skip(idx) {
				base[slot] = append(base[slot], idx)
			}
		}
	}
	v := &CrossView{cross: p.Cross, bySlot: make([][][]int, n), hoisted: make([][][]int, n)}
	for t := 0; t < n; t++ {
		v.bySlot[t] = base
		for slot := 0; slot < n; slot++ {
			revisited := slot < t-1 || slot > t+1 || (slot == t+1 && t > 0)
			if !revisited {
				continue
			}
			pair := uint64(1)<<uint(t) | uint64(1)<<uint(slot)
			var keep, hoist []int
			for _, idx := range base[slot] {
				if p.Cross[idx].Mask == pair {
					hoist = append(hoist, idx)
				} else {
					keep = append(keep, idx)
				}
			}
			if hoist == nil {
				continue
			}
			if v.hoisted[t] == nil {
				v.hoisted[t] = make([][]int, n)
				v.bySlot[t] = append([][]int(nil), base...)
			}
			v.hoisted[t][slot] = hoist
			v.bySlot[t][slot] = keep
		}
	}
	return v
}

// Hoisted returns, per slot, the predicates over exactly {trig, slot} that
// SatisfiedAt leaves out of a walk triggered at trig (evaluate them with
// Holds); nil when the trigger position has none.
func (v *CrossView) Hoisted(trig int) [][]int { return v.hoisted[trig] }

// Holds evaluates the given predicates (indices from Hoisted) under the
// binding; an evaluation error counts as false and goes to errSink.
func (v *CrossView) Holds(idxs []int, binding []event.Event, errSink func(error)) bool {
	for _, idx := range idxs {
		if !v.holds(idx, binding, errSink) {
			return false
		}
	}
	return true
}

// SatisfiedAt evaluates, in a walk triggered at position trig, the retained
// cross predicates that become fully bound by binding the given slot, less
// the ones Hoisted(trig) lists for it. boundMask must include slot.
func (v *CrossView) SatisfiedAt(trig, slot int, boundMask uint64, binding []event.Event, errSink func(error)) bool {
	prevMask := boundMask &^ (1 << uint(slot))
	for _, idx := range v.bySlot[trig][slot] {
		mask := v.cross[idx].Mask
		if mask&^boundMask != 0 {
			continue // not all referenced slots bound yet
		}
		if mask&^prevMask == 0 {
			continue // was already fully bound before this slot; fired earlier
		}
		if !v.holds(idx, binding, errSink) {
			return false
		}
	}
	return true
}

func (v *CrossView) holds(idx int, binding []event.Event, errSink func(error)) bool {
	ok, err := v.cross[idx].Pred.EvalBool(binding) // ok is false on error
	if err != nil && errSink != nil {
		errSink(err)
	}
	return ok
}

func (p *Plan) compileReturn(a *query.Analyzed) error {
	for _, item := range a.Query.Return {
		c, err := predicate.Compile(item.Expr, func(v string) (int, bool) {
			pos, ok := a.VarPosition[v]
			return pos, ok
		})
		if err != nil {
			return err
		}
		p.Return = append(p.Return, ReturnCol{Name: item.Name, Expr: c})
	}
	return nil
}

// Len returns the number of positive steps.
func (p *Plan) Len() int { return len(p.Positives) }

// PositionsForType returns the positive positions an event type occupies.
// A type may occur at multiple positions (e.g. SEQ(TRADE a, TRADE b)).
func (p *Plan) PositionsForType(typ string) []int { return p.typeIndex[typ] }

// NegativesForType returns the negation indices an event type occupies.
func (p *Plan) NegativesForType(typ string) []int { return p.negTypeIndex[typ] }

// Relevant reports whether the event type occurs anywhere in the pattern.
func (p *Plan) Relevant(typ string) bool {
	return len(p.typeIndex[typ]) > 0 || len(p.negTypeIndex[typ]) > 0
}

// HasNegation reports whether the plan contains negated components.
func (p *Plan) HasNegation() bool { return len(p.Negatives) > 0 }

// EvalLocal evaluates a step's local predicates on one event. A predicate
// evaluation error counts as non-match; the error is reported through
// errSink when non-nil (engines route it to metrics).
func EvalLocal(preds []*predicate.Compiled, e event.Event, errSink func(error)) bool {
	return EvalLocalScratch(preds, e, nil, errSink)
}

// EvalLocalScratch is EvalLocal reusing a caller-owned binding buffer of at
// least one slot (slot 0 is overwritten), avoiding a per-event allocation
// on engine hot paths. A nil scratch allocates.
func EvalLocalScratch(preds []*predicate.Compiled, e event.Event, scratch []event.Event, errSink func(error)) bool {
	if len(preds) == 0 {
		return true
	}
	binding := scratch
	if len(binding) == 0 {
		binding = []event.Event{e}
	} else {
		binding[0] = e
	}
	for _, c := range preds {
		ok, err := c.EvalBool(binding)
		if err != nil {
			if errSink != nil {
				errSink(err)
			}
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

// CrossSatisfiedAt evaluates the cross predicates that become fully bound by
// binding the given slot. boundMask must include slot. Predicates whose mask
// is not fully covered by boundMask are skipped (they will be checked when
// their last slot binds). A predicate whose referenced slots were all bound
// BEFORE slot was bound is also skipped here, to keep evaluation
// exactly-once: it fired when its own last slot bound.
func (p *Plan) CrossSatisfiedAt(slot int, boundMask uint64, binding []event.Event, errSink func(error)) bool {
	prevMask := boundMask &^ (1 << uint(slot))
	for _, idx := range p.CrossBySlot[slot] {
		cp := p.Cross[idx]
		if cp.Mask&^boundMask != 0 {
			continue // not all referenced slots bound yet
		}
		if cp.Mask&^prevMask == 0 {
			continue // was already fully bound before this slot; fired earlier
		}
		ok, err := cp.Pred.EvalBool(binding)
		if err != nil {
			if errSink != nil {
				errSink(err)
			}
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

// NegMatches reports whether the negative event t invalidates the positive
// binding, i.e. all local and cross predicates of the negation hold.
// The time containment check (t inside the gap) is the caller's job.
func (p *Plan) NegMatches(negIdx int, t event.Event, positives []event.Event, errSink func(error)) bool {
	return p.NegMatchesScratch(negIdx, t, positives, nil, nil, errSink)
}

// NegMatchesScratch is NegMatches with two hot-path refinements: cross
// predicates whose index (into Negatives[negIdx].Cross) is marked in skip
// are treated as pre-satisfied (key-partitioned stores prove their key
// equalities structurally), and scratch — when non-nil, len(Positives)+1
// capacity — is reused as the evaluation binding instead of allocating.
func (p *Plan) NegMatchesScratch(negIdx int, t event.Event, positives []event.Event, skip []bool, scratch []event.Event, errSink func(error)) bool {
	step := p.Negatives[negIdx]
	if !EvalLocalScratch(step.Local, t, scratch, errSink) {
		return false
	}
	if len(step.Cross) == 0 {
		return true
	}
	binding := scratch
	if len(binding) < len(p.Positives)+1 {
		binding = make([]event.Event, len(p.Positives)+1)
	}
	copy(binding, positives)
	binding[len(p.Positives)] = t
	for ci, c := range step.Cross {
		if ci < len(skip) && skip[ci] {
			continue
		}
		ok, err := c.EvalBool(binding)
		if err != nil {
			if errSink != nil {
				errSink(err)
			}
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

// GapBounds returns the timestamp interval (lo, hi), exclusive on both ends,
// within which a negative event of negation negIdx invalidates the binding.
// For leading negation lo is first.TS−Window; for trailing, hi is
// first.TS+Window.
func (p *Plan) GapBounds(negIdx int, positives []event.Event) (lo, hi event.Time) {
	gap := p.Negatives[negIdx].GapAfter
	switch {
	case gap == 0:
		lo = positives[0].TS - p.Window
		hi = positives[0].TS
	case gap == len(p.Positives):
		lo = positives[len(positives)-1].TS
		hi = positives[0].TS + p.Window
	default:
		lo = positives[gap-1].TS
		hi = positives[gap].TS
	}
	return lo, hi
}

// Project computes the RETURN columns for a complete positive binding.
// With no RETURN clause it returns nil.
func (p *Plan) Project(positives []event.Event) ([]event.Value, error) {
	if len(p.Return) == 0 {
		return nil, nil
	}
	out := make([]event.Value, len(p.Return))
	for i, col := range p.Return {
		v, err := col.Expr.Eval(positives)
		if err != nil {
			return nil, fmt.Errorf("RETURN %s: %w", col.Name, err)
		}
		out[i] = v
	}
	return out, nil
}

// ParseAndCompile is a convenience: parse, analyze against an optional
// schema, and compile.
func ParseAndCompile(src string, schema *event.Schema) (*Plan, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	a, err := query.Analyze(q, schema)
	if err != nil {
		return nil, err
	}
	return Compile(a)
}
