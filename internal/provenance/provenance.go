// Package provenance defines the lineage and state-introspection model of
// the observability layer: per-match lineage records (which events a match
// cites, which key group it came from, what triggered its construction,
// and — for retractions — which late event invalidated it) and read-only
// engine state snapshots (per-position stack depths, heaviest key groups,
// negation-store sizes, buffer occupancy, clocks, purge frontier).
//
// The package sits below every engine: it imports only internal/event and
// internal/obsv (both leaf packages), so plan.Match can carry a *Record
// and internal/engine can expose snapshot interfaces without import
// cycles. Engines build records only when provenance is enabled
// (Config.Provenance); the disabled path constructs nothing.
package provenance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"oostream/internal/event"
	"oostream/internal/obsv"
)

// Record kinds, mirroring plan.MatchKind as strings so the record is
// self-describing in JSON without importing plan.
const (
	KindInsert  = "insert"
	KindRetract = "retract"
)

// EventRef cites one event that contributed to a match.
type EventRef struct {
	// Pos is the positive pattern position the event bound; -1 for a
	// negative (invalidating) event.
	Pos int `json:"pos"`
	// Type is the event type.
	Type string `json:"type"`
	// TS is the event timestamp.
	TS event.Time `json:"ts"`
	// Seq is the event's arrival-independent sequence number — the stable
	// identity lineage is keyed on.
	Seq event.Seq `json:"seq"`
}

// Ref cites e at pattern position pos (-1 for negatives).
func Ref(e event.Event, pos int) EventRef {
	return EventRef{Pos: pos, Type: e.Type, TS: e.TS, Seq: e.Seq}
}

// Refs cites a complete positive binding, position by position.
func Refs(events []event.Event) []EventRef {
	out := make([]EventRef, len(events))
	for i, e := range events {
		out[i] = Ref(e, i)
	}
	return out
}

// String renders the reference compactly: TYPE@ts#seq.
func (r EventRef) String() string {
	return fmt.Sprintf("%s@%d#%d", r.Type, r.TS, r.Seq)
}

// Record is the lineage of one emitted (or retracted) match.
type Record struct {
	// Kind is KindInsert or KindRetract.
	Kind string `json:"kind"`
	// Events cites the match's events, one per positive position.
	Events []EventRef `json:"events"`
	// Key is the rendered partition-key value of the key group the match
	// was constructed in ("" when the engine ran unkeyed).
	Key string `json:"key,omitempty"`
	// KeyAttr is the partition attribute Key was read from.
	KeyAttr string `json:"keyAttr,omitempty"`
	// WindowLo/WindowHi bound the match's window: [first.TS, first.TS+W].
	WindowLo event.Time `json:"windowLo"`
	WindowHi event.Time `json:"windowHi"`
	// SealTS is the timestamp the safe clock had to pass before the
	// match's negation gaps were sealed (minTime when no negation).
	SealTS event.Time `json:"sealTS"`
	// TriggerSeq/TriggerTS/TriggerPos identify the arrival whose insertion
	// triggered the construction that enumerated this match.
	TriggerSeq event.Seq  `json:"triggerSeq,omitempty"`
	TriggerTS  event.Time `json:"triggerTS,omitempty"`
	TriggerPos int        `json:"triggerPos,omitempty"`
	// Traversed counts the AIS instances examined while constructing the
	// binding: the candidates in reach the trigger-pair pre-filter scanned,
	// plus the candidates the enumeration visited, productive or not (a
	// level the walk does not enter adds none).
	Traversed int `json:"traversed,omitempty"`
	// EmitClock is the engine clock at emission.
	EmitClock event.Time `json:"emitClock"`
	// InvalidatedBy, on retractions, cites the late negative event that
	// invalidated the speculative match.
	InvalidatedBy *EventRef `json:"invalidatedBy,omitempty"`
	// Truncated marks a record rebuilt after a checkpoint restore: lineage
	// is not checkpointed, so trigger and traversal details are lost and
	// only the event citations (recoverable from the restored binding)
	// remain.
	Truncated bool `json:"truncated,omitempty"`
}

// MatchKey returns the "|"-joined event Seqs — the same canonical match
// identity plan.Match.Key computes, so lineage joins against trace events
// and multiset checks without importing plan.
func (r *Record) MatchKey() string {
	var b strings.Builder
	for i, e := range r.Events {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.FormatUint(e.Seq, 10))
	}
	return b.String()
}

// SizeBytes estimates the retained heap footprint of the record, for the
// lineage-bytes gauge. It is an estimate (struct sizes, slice headers, and
// small strings), not an exact accounting.
func (r *Record) SizeBytes() int {
	const recBase = 160 // Record struct + pointer + padding, rounded up
	const refSize = 40  // EventRef struct + type-string header
	n := recBase + len(r.Events)*refSize + len(r.Key) + len(r.KeyAttr)
	for _, e := range r.Events {
		n += len(e.Type)
	}
	if r.InvalidatedBy != nil {
		n += refSize + len(r.InvalidatedBy.Type)
	}
	return n
}

// String renders the lineage on one line (the esprun -explain format).
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s match %s: events=[", r.Kind, r.MatchKey())
	for i, e := range r.Events {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(e.String())
	}
	fmt.Fprintf(&b, "] window=[%d,%d]", r.WindowLo, r.WindowHi)
	if r.Key != "" {
		fmt.Fprintf(&b, " key=%s=%s", r.KeyAttr, r.Key)
	}
	if r.Truncated {
		b.WriteString(" provenance=truncated")
	} else if r.Kind == KindInsert {
		fmt.Fprintf(&b, " trigger=#%d@pos%d traversed=%d", r.TriggerSeq, r.TriggerPos, r.Traversed)
	}
	if r.InvalidatedBy != nil {
		fmt.Fprintf(&b, " invalidatedBy=%s", r.InvalidatedBy)
	}
	return b.String()
}

// KeyGroupStat is one key group's live state size, for the top-K heaviest
// listing in a snapshot.
type KeyGroupStat struct {
	Key  string `json:"key"`
	Size int    `json:"size"`
}

// TopK returns the k heaviest groups, ties broken by key for determinism.
func TopK(groups []KeyGroupStat, k int) []KeyGroupStat {
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Size != groups[j].Size {
			return groups[i].Size > groups[j].Size
		}
		return groups[i].Key < groups[j].Key
	})
	if len(groups) > k {
		groups = groups[:k]
	}
	return groups
}

// LineageStats reports the provenance subsystem's own footprint.
type LineageStats struct {
	// Enabled reports whether the engine builds lineage records.
	Enabled bool `json:"enabled"`
	// Live counts lineage records currently retained by the engine
	// (attached to pending matches awaiting negation sealing).
	Live int `json:"live"`
	// Bytes estimates the heap retained by live records.
	Bytes int `json:"bytes"`
	// Truncated reports that the engine was restored from a checkpoint:
	// lineage is not checkpointed, so records for state predating the
	// restore carry Truncated.
	Truncated bool `json:"truncated,omitempty"`
}

// StateSnapshot is a read-only view of one engine's live state, the
// payload of the /debug/state endpoint and the espexplain CLI. Taking a
// snapshot is not safe concurrently with Process — callers serving HTTP
// publish snapshots from the processing goroutine (see cmd/esprun).
type StateSnapshot struct {
	// Engine names the strategy ("native", "kslack", "shard(native)", …).
	Engine string `json:"engine"`
	// Started reports whether the engine has seen an event.
	Started bool `json:"started"`
	// Clock is the engine's current clock: the maximum timestamp seen.
	Clock event.Time `json:"clock"`
	// Safe is the safe clock / watermark (Clock − K): everything below it
	// has arrived under the disorder bound.
	Safe event.Time `json:"safe"`
	// PurgeFrontier is the horizon below which intermediate state has been
	// (or will next be) reclaimed — Safe minus the query window.
	PurgeFrontier event.Time `json:"purgeFrontier"`
	// StackDepths is the live instance count per positive pattern
	// position, summed across key groups when the engine is keyed. A stack
	// that positions share (StackShared) is counted once, at its first
	// position, and reads 0 at the others.
	StackDepths []int `json:"stackDepths"`
	// StackShared is, per position, the first position of the stack it
	// reads: positions of one type with no local predicate admit the same
	// events and share one. Absent when every position has its own.
	StackShared []int `json:"stackShared,omitempty"`
	// KeyAttr is the partition attribute the stacks are keyed on ("" when
	// unkeyed).
	KeyAttr string `json:"keyAttr,omitempty"`
	// KeyGroups counts live key groups (0 when unkeyed).
	KeyGroups int `json:"keyGroups"`
	// TopKeyGroups lists the heaviest key groups by live state size.
	TopKeyGroups []KeyGroupStat `json:"topKeyGroups,omitempty"`
	// NegStoreSizes is the buffered-negative count per negation component.
	NegStoreSizes []int `json:"negStoreSizes"`
	// BufferLen is auxiliary buffer occupancy: the reorder buffer for
	// kslack and for a QuerySet.
	BufferLen int `json:"bufferLen,omitempty"`
	// Pending counts complete bindings parked until their negation gaps
	// seal.
	Pending int `json:"pending,omitempty"`
	// Vulnerable counts speculatively emitted matches that can still be
	// retracted (speculate, and hybrid while or shortly after speculating).
	Vulnerable int `json:"vulnerable,omitempty"`
	// MatchSeq and Committed are the supervised runtime's commit horizon:
	// cumulative match emissions and the highest WAL-committed emission.
	MatchSeq  uint64 `json:"matchSeq,omitempty"`
	Committed uint64 `json:"committed,omitempty"`
	// Lineage reports the provenance subsystem's own footprint.
	Lineage LineageStats `json:"lineage"`
	// Adaptive reports the disorder controller's state when the engine runs
	// with dynamic K, SLO-driven switching, or overload degradation.
	Adaptive *AdaptiveStats `json:"adaptive,omitempty"`
	// Latency is the sampled wall-clock latency attribution digest, set by
	// the facade when Config.Latency is enabled.
	Latency *obsv.LatencyReport `json:"latency,omitempty"`
	// Inner is the wrapped engine's snapshot (the kernel behind kslack's
	// buffer).
	Inner *StateSnapshot `json:"inner,omitempty"`
	// Shards holds the per-query snapshots a query set aggregates (the JSON
	// name predates the set).
	Shards []*StateSnapshot `json:"shards,omitempty"`
}

// AdaptiveStats is the disorder controller's introspection view: what
// bound the engine is enforcing right now, the largest bound ever enforced
// (the static K the run is output-equivalent to), and the degradation and
// hybrid-switch counters.
type AdaptiveStats struct {
	// Enabled reports whether K is being derived dynamically.
	Enabled bool `json:"enabled"`
	// EffectiveK is the bound being enforced right now; NominalK the
	// quantile-derived bound before degradation clamping.
	EffectiveK event.Time `json:"effectiveK"`
	NominalK   event.Time `json:"nominalK"`
	// MaxKObserved is the largest effective K ever published.
	MaxKObserved event.Time `json:"maxKObserved"`
	// Degraded reports whether overload degradation is shedding.
	Degraded bool `json:"degraded"`
	// Shedded counts events discarded by degradation.
	Shedded uint64 `json:"shedded"`
	// Resizes counts how many times the derived K changed.
	Resizes uint64 `json:"resizes"`
	// Mode is the hybrid meta-engine's current strategy ("speculate" or
	// "native"; empty for non-hybrid engines); Switches counts handoffs.
	Mode     string `json:"mode,omitempty"`
	Switches uint64 `json:"switches,omitempty"`
}

// Aggregate sums sub-snapshots into a parent named engine, keeping the
// parts under Shards. Clock is the max over parts, Safe the min (the part
// whose safe clock lags gates global sealing), depths and sizes sum, and
// the heaviest key groups across all parts are kept.
func Aggregate(engine string, subs []*StateSnapshot) *StateSnapshot {
	agg := &StateSnapshot{Engine: engine, Shards: subs}
	var groups []KeyGroupStat
	for _, s := range subs {
		if s == nil {
			continue
		}
		if !s.Started {
			continue
		}
		if !agg.Started || s.Clock > agg.Clock {
			agg.Clock = s.Clock
		}
		if !agg.Started || s.Safe < agg.Safe {
			agg.Safe = s.Safe
		}
		if !agg.Started || s.PurgeFrontier < agg.PurgeFrontier {
			agg.PurgeFrontier = s.PurgeFrontier
		}
		agg.Started = true
	}
	for _, s := range subs {
		if s == nil {
			continue
		}
		if len(agg.StackDepths) < len(s.StackDepths) {
			agg.StackDepths = append(agg.StackDepths, make([]int, len(s.StackDepths)-len(agg.StackDepths))...)
		}
		for i, d := range s.StackDepths {
			agg.StackDepths[i] += d
		}
		if len(agg.NegStoreSizes) < len(s.NegStoreSizes) {
			agg.NegStoreSizes = append(agg.NegStoreSizes, make([]int, len(s.NegStoreSizes)-len(agg.NegStoreSizes))...)
		}
		for i, n := range s.NegStoreSizes {
			agg.NegStoreSizes[i] += n
		}
		agg.KeyGroups += s.KeyGroups
		agg.BufferLen += s.BufferLen
		agg.Pending += s.Pending
		agg.Vulnerable += s.Vulnerable
		agg.Lineage.Enabled = agg.Lineage.Enabled || s.Lineage.Enabled
		agg.Lineage.Live += s.Lineage.Live
		agg.Lineage.Bytes += s.Lineage.Bytes
		agg.Lineage.Truncated = agg.Lineage.Truncated || s.Lineage.Truncated
		if s.Adaptive != nil {
			if agg.Adaptive == nil {
				agg.Adaptive = &AdaptiveStats{}
			}
			a := agg.Adaptive
			a.Enabled = a.Enabled || s.Adaptive.Enabled
			// Per-shard bounds can differ; report the largest (the bound
			// that gates the slowest shard).
			if s.Adaptive.EffectiveK > a.EffectiveK {
				a.EffectiveK = s.Adaptive.EffectiveK
			}
			if s.Adaptive.NominalK > a.NominalK {
				a.NominalK = s.Adaptive.NominalK
			}
			if s.Adaptive.MaxKObserved > a.MaxKObserved {
				a.MaxKObserved = s.Adaptive.MaxKObserved
			}
			a.Degraded = a.Degraded || s.Adaptive.Degraded
			a.Shedded += s.Adaptive.Shedded
			a.Resizes += s.Adaptive.Resizes
			a.Switches += s.Adaptive.Switches
			if a.Mode == "" {
				a.Mode = s.Adaptive.Mode
			}
		}
		groups = append(groups, s.TopKeyGroups...)
	}
	agg.TopKeyGroups = TopK(groups, defaultTopK)
	return agg
}

// defaultTopK is how many heaviest key groups a snapshot lists.
const defaultTopK = 8
