// Command espexplain answers diagnosis questions about a running (or
// finished) engine from its observability artifacts alone: the live state
// snapshot served on /debug/state and the flight recorder's trace dump
// served on /debug/flight?format=json (both also writable to files).
//
// Usage:
//
//	espexplain -state http://127.0.0.1:9090/debug/state
//	espexplain -flight http://127.0.0.1:9090/debug/flight
//	espexplain -state state.json -flight flight.jsonl
//	espexplain -flight flight.jsonl -match "3|7|12"   # why did match M emit?
//	espexplain -flight flight.jsonl -event 42         # what happened to event E?
//
// Without -match or -event it prints a state summary (stack depths,
// heaviest key groups, negation stores, buffers, clocks, lineage
// retention) and a trace-op histogram. Match identities ("|"-joined event
// sequence numbers) appear on emit/retract trace events only when the
// producing run had provenance enabled (esprun -explain, or
// Config.Provenance). Windowed-aggregate emissions are addressed the same
// way — their identity cites the events of every pattern match
// contributing to the window, and the verdict reports the window end and
// contributing-match count instead of a binding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"oostream/internal/event"
	"oostream/internal/obsv"
	"oostream/internal/provenance"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "espexplain:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("espexplain", flag.ContinueOnError)
	var (
		stateSrc  = fs.String("state", "", "state snapshot: file path or URL (the /debug/state document)")
		flightSrc = fs.String("flight", "", "flight dump: file path or URL (JSON Lines; URLs are fetched with ?format=json)")
		matchKey  = fs.String("match", "", `explain one match by its identity: "|"-joined event sequence numbers`)
		eventSeq  = fs.Int64("event", 0, "explain one event by its sequence number")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stateSrc == "" && *flightSrc == "" {
		return fmt.Errorf("nothing to explain: pass -state and/or -flight")
	}

	var snap *provenance.StateSnapshot
	if *stateSrc != "" {
		raw, err := fetch(*stateSrc)
		if err != nil {
			return err
		}
		snap = new(provenance.StateSnapshot)
		if err := json.Unmarshal(raw, snap); err != nil {
			return fmt.Errorf("decode state snapshot from %s: %w", *stateSrc, err)
		}
	}
	var fl []obsv.TraceEvent
	if *flightSrc != "" {
		raw, err := fetch(flightURL(*flightSrc))
		if err != nil {
			return err
		}
		fl, err = parseFlight(raw)
		if err != nil {
			return fmt.Errorf("decode flight dump from %s: %w", *flightSrc, err)
		}
	}

	switch {
	case *matchKey != "":
		if fl == nil {
			return fmt.Errorf("-match needs a flight dump (-flight)")
		}
		return explainMatch(stdout, *matchKey, fl, snap)
	case *eventSeq != 0:
		if fl == nil {
			return fmt.Errorf("-event needs a flight dump (-flight)")
		}
		return explainEvent(stdout, event.Seq(*eventSeq), fl, snap)
	default:
		if snap != nil {
			printState(stdout, snap, "")
		}
		if fl != nil {
			printFlightSummary(stdout, fl)
		}
		return nil
	}
}

// fetch loads a file path or an http(s) URL.
func fetch(src string) ([]byte, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s: %s", src, resp.Status, strings.TrimSpace(string(body)))
		}
		return body, nil
	}
	return os.ReadFile(src)
}

// flightURL makes a /debug/flight URL ask for the JSON Lines rendering.
func flightURL(src string) string {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		return src
	}
	if strings.Contains(src, "format=") {
		return src
	}
	if strings.Contains(src, "?") {
		return src + "&format=json"
	}
	return src + "?format=json"
}

// parseFlight decodes a JSON Lines trace dump, oldest first.
func parseFlight(raw []byte) ([]obsv.TraceEvent, error) {
	var out []obsv.TraceEvent
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var te obsv.TraceEvent
		if err := json.Unmarshal([]byte(line), &te); err != nil {
			return nil, fmt.Errorf("line %d: %w (is this the text dump? fetch /debug/flight?format=json)", i+1, err)
		}
		out = append(out, te)
	}
	return out, nil
}

// printState renders a snapshot (and its per-query parts / inner engine,
// indented).
func printState(w io.Writer, s *provenance.StateSnapshot, indent string) {
	p := func(format string, args ...any) { fmt.Fprintf(w, indent+format+"\n", args...) }
	p("engine: %s", s.Engine)
	if !s.Started {
		p("  (no events processed yet)")
	}
	p("  clock=%d safe=%d purgeFrontier=%d", s.Clock, s.Safe, s.PurgeFrontier)
	if len(s.StackDepths) > 0 {
		depths := make([]string, len(s.StackDepths))
		for i, d := range s.StackDepths {
			depths[i] = strconv.Itoa(d)
			// A shared stack is counted once, at its first position.
			if i < len(s.StackShared) {
				if lead := s.StackShared[i]; lead != i && lead >= 0 && lead < len(s.StackDepths) {
					depths[i] = fmt.Sprintf("%d(shared with %d)", s.StackDepths[lead], lead)
				}
			}
		}
		p("  stack depths by position: [%s]", strings.Join(depths, " "))
	}
	if s.KeyGroups > 0 {
		p("  key groups: %d (keyed by %q)", s.KeyGroups, s.KeyAttr)
		for _, g := range s.TopKeyGroups {
			p("    %-12s %d instances", g.Key, g.Size)
		}
	}
	if len(s.NegStoreSizes) > 0 {
		sizes := make([]string, len(s.NegStoreSizes))
		for i, n := range s.NegStoreSizes {
			sizes[i] = strconv.Itoa(n)
		}
		p("  negation stores: [%s]", strings.Join(sizes, " "))
	}
	if s.BufferLen > 0 {
		p("  buffered events/matches: %d", s.BufferLen)
	}
	if s.Pending > 0 {
		p("  pending (awaiting seal): %d", s.Pending)
	}
	if s.Vulnerable > 0 {
		p("  vulnerable (retractable) results: %d", s.Vulnerable)
	}
	if s.MatchSeq > 0 || s.Committed > 0 {
		p("  match seq=%d committed=%d", s.MatchSeq, s.Committed)
	}
	if s.Lineage.Enabled {
		trunc := ""
		if s.Lineage.Truncated {
			trunc = " provenance=truncated (restored from a checkpoint)"
		}
		p("  lineage: %d records live, %d bytes retained%s", s.Lineage.Live, s.Lineage.Bytes, trunc)
	} else {
		p("  lineage: disabled (run with provenance to record it)")
	}
	if s.Inner != nil {
		printState(w, s.Inner, indent+"  ")
	}
	for _, sub := range s.Shards {
		if sub != nil {
			printState(w, sub, indent+"  ")
		}
	}
}

// printFlightSummary renders a per-op histogram of the retained trace.
func printFlightSummary(w io.Writer, fl []obsv.TraceEvent) {
	counts := map[obsv.Op]int{}
	for _, te := range fl {
		counts[te.Op]++
	}
	ops := make([]obsv.Op, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	fmt.Fprintf(w, "flight: %d retained trace events\n", len(fl))
	for _, op := range ops {
		fmt.Fprintf(w, "  %-10s %d\n", op, counts[op])
	}
}

// parseMatchKey splits a "|"-joined identity into event sequence numbers.
func parseMatchKey(key string) ([]event.Seq, error) {
	parts := strings.Split(key, "|")
	seqs := make([]event.Seq, len(parts))
	for i, p := range parts {
		n, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("match identity %q: %q is not an event sequence number", key, p)
		}
		seqs[i] = event.Seq(n)
	}
	return seqs, nil
}

// explainMatch answers "why did match M emit?" from the trace: the
// per-event admission/stack history of every contributing event, the
// construction trigger, and the emit (and any retract) itself.
func explainMatch(w io.Writer, key string, fl []obsv.TraceEvent, snap *provenance.StateSnapshot) error {
	seqs, err := parseMatchKey(key)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "match %s:\n", key)
	inMatch := make(map[event.Seq]bool, len(seqs))
	for _, s := range seqs {
		inMatch[s] = true
	}
	var emits, retracts []obsv.TraceEvent
	shown := 0
	for _, te := range fl {
		switch {
		case te.Match == key && te.Op == obsv.OpEmit:
			emits = append(emits, te)
		case te.Match == key && te.Op == obsv.OpRetract:
			retracts = append(retracts, te)
		case lifecycleOp(te.Op) && te.Seq != 0 && inMatch[te.Seq]:
			// Emission events are matched by identity above, never by Seq:
			// their Seq is the emission counter, which shares the numbering
			// space with (and can collide with) event sequence numbers.
			fmt.Fprintf(w, "  %s\n", te)
			shown++
		}
	}
	if shown == 0 {
		fmt.Fprintf(w, "  (no per-event trace retained for its events — they may have rotated out of the flight window)\n")
	}
	switch {
	case len(emits) > 0:
		for _, te := range emits {
			fmt.Fprintf(w, "  %s\n", te)
			if isAggregate(te.Engine) {
				// Aggregate emissions cite the events of every contributing
				// pattern match; TS is the window end and N the match count.
				fmt.Fprintf(w, "verdict: window aggregate emitted by %s — %d contributing matches over the window ending ts=%d, citing %d events\n",
					te.Engine, te.N, te.TS, len(seqs))
				continue
			}
			fmt.Fprintf(w, "verdict: emitted by %s — all %d events admitted, stacked, and joined within the window; last event ts=%d\n",
				te.Engine, len(seqs), te.TS)
		}
		for _, te := range retracts {
			fmt.Fprintf(w, "  %s\n", te)
			if isAggregate(te.Engine) {
				fmt.Fprintf(w, "verdict: later RETRACTED by %s at seq=%d — a revision replaced the previewed window value\n", te.Engine, te.Seq)
				continue
			}
			fmt.Fprintf(w, "verdict: later RETRACTED by %s at seq=%d — a late event invalidated the speculative result\n", te.Engine, te.Seq)
		}
	case len(retracts) > 0:
		for _, te := range retracts {
			fmt.Fprintf(w, "  %s\n", te)
		}
		fmt.Fprintf(w, "verdict: only a retraction is retained; the emit rotated out of the flight window\n")
	default:
		fmt.Fprintf(w, "verdict: no emit or retract for this identity in the retained trace")
		if provenanceOff(fl, snap) {
			fmt.Fprintf(w, " — provenance looks disabled (emit events carry no match identity); rerun with esprun -explain or Config.Provenance")
		} else {
			fmt.Fprintf(w, " — it may have rotated out of the flight window, or never emitted")
		}
		fmt.Fprintln(w)
	}
	return nil
}

// provenanceOff reports whether the artifacts indicate lineage was never
// recorded: the snapshot says so, or every retained emit lacks an
// identity.
func provenanceOff(fl []obsv.TraceEvent, snap *provenance.StateSnapshot) bool {
	if snap != nil {
		return !snap.Lineage.Enabled
	}
	for _, te := range fl {
		if (te.Op == obsv.OpEmit || te.Op == obsv.OpRetract) && te.Match != "" {
			return false
		}
	}
	return true
}

// explainEvent answers "what happened to event E?": its retained
// lifecycle timeline, whether it was dropped, and which matches cite it.
func explainEvent(w io.Writer, seq event.Seq, fl []obsv.TraceEvent, snap *provenance.StateSnapshot) error {
	fmt.Fprintf(w, "event #%d:\n", seq)
	var timeline []obsv.TraceEvent
	matchesCiting := map[string]bool{}
	for _, te := range fl {
		if lifecycleOp(te.Op) && te.Seq == seq {
			timeline = append(timeline, te)
		}
		if te.Match != "" && (te.Op == obsv.OpEmit || te.Op == obsv.OpRetract) {
			if cites(te.Match, seq) {
				matchesCiting[te.Match] = true
				timeline = append(timeline, te)
			}
		}
	}
	dropped, admitted := false, false
	for _, te := range timeline {
		fmt.Fprintf(w, "  %s\n", te)
		switch te.Op {
		case obsv.OpDrop:
			dropped = true
		case obsv.OpAdmit:
			admitted = true
		}
	}
	switch {
	case dropped:
		fmt.Fprintf(w, "verdict: DROPPED at admission — its timestamp violated the disorder bound (below clock−K when it arrived), or a supervised runtime rejected it as a duplicate\n")
	case len(matchesCiting) > 0:
		keys := make([]string, 0, len(matchesCiting))
		for k := range matchesCiting {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "verdict: admitted and cited by %d match(es): %s\n", len(matchesCiting), strings.Join(keys, ", "))
	case admitted:
		fmt.Fprintf(w, "verdict: admitted but cited by no retained match — it may be irrelevant to the pattern, still pending, or its matches rotated out of the flight window\n")
	case len(timeline) == 0:
		fmt.Fprintf(w, "verdict: not in the retained trace — it arrived before the flight window%s\n", orNever(snap))
	default:
		fmt.Fprintf(w, "verdict: traced but never admitted into a stack\n")
	}
	return nil
}

func orNever(snap *provenance.StateSnapshot) string {
	if snap == nil {
		return ", or never arrived"
	}
	return fmt.Sprintf(", or never arrived (engine clock is at %d)", snap.Clock)
}

// lifecycleOp reports whether an op's Seq field is an event sequence
// number (admission/stack lifecycle) rather than an emission counter
// (emit/retract) or unrelated bookkeeping.
func lifecycleOp(op obsv.Op) bool {
	switch op {
	case obsv.OpAdmit, obsv.OpDrop, obsv.OpStackPush, obsv.OpRepair, obsv.OpTrigger:
		return true
	}
	return false
}

// isAggregate reports whether an emitting engine is the windowed
// aggregation operator (its name wraps the inner strategy, e.g.
// "agg(native)"): such emissions are window values whose identity cites
// the events of every contributing pattern match.
func isAggregate(engine string) bool { return strings.HasPrefix(engine, "agg(") }

// cites reports whether a "|"-joined match identity contains seq.
func cites(key string, seq event.Seq) bool {
	want := strconv.FormatUint(uint64(seq), 10)
	for _, p := range strings.Split(key, "|") {
		if p == want {
			return true
		}
	}
	return false
}
