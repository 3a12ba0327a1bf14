package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"oostream/internal/engine"
)

// shardCheckpoint is the serialized form of a sequential sharded engine:
// the routing configuration (validated on restore) and one opaque
// sub-checkpoint per shard. Each part's blob is whatever its engine's own
// Checkpoint wrote — for native parts, the enveloped, CRC-protected core
// format.
type shardCheckpoint struct {
	Attr        string   `json:"attr"`
	Shards      int      `json:"shards"`
	RouteErrors uint64   `json:"routeErrors"`
	Parts       [][]byte `json:"parts"`
}

// Checkpoint implements engine.Engine by serializing every shard; a part
// that cannot checkpoint fails the whole call (the facade restores sharded
// engines over native parts only).
func (en *Engine) Checkpoint(w io.Writer) error {
	ck := shardCheckpoint{
		Attr:        en.router.attr,
		Shards:      en.router.shards,
		RouteErrors: en.routeErrors,
		Parts:       make([][]byte, len(en.parts)),
	}
	for i, p := range en.parts {
		var buf bytes.Buffer
		if err := p.Checkpoint(&buf); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		ck.Parts[i] = buf.Bytes()
	}
	return json.NewEncoder(w).Encode(ck)
}

// Restore rebuilds a sequential sharded engine from a Checkpoint. The
// router must match the checkpointed topology (attribute and shard count:
// re-hashing state into a different partitioning would strand events), and
// restore is called once per shard with that shard's serialized state (and
// builds the part with that shard's Env, as New's factory does); env is the
// routing layer's.
func Restore(router *Router, env engine.Env, restore func(shard int, r io.Reader) (engine.Engine, error), r io.Reader) (*Engine, error) {
	var ck shardCheckpoint
	if err := json.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("decode shard checkpoint: %w", err)
	}
	if ck.Attr != router.attr || ck.Shards != router.shards {
		return nil, fmt.Errorf("shard checkpoint is for %d shards on %q, not %d on %q",
			ck.Shards, ck.Attr, router.shards, router.attr)
	}
	if len(ck.Parts) != router.shards {
		return nil, fmt.Errorf("shard checkpoint has %d parts, want %d", len(ck.Parts), router.shards)
	}
	parts, err := buildParts(router, func(i int) (engine.Engine, error) {
		return restore(i, bytes.NewReader(ck.Parts[i]))
	})
	if err != nil {
		return nil, fmt.Errorf("restore %w", err)
	}
	en := newEngine(router, env, parts)
	en.routeErrors = ck.RouteErrors
	return en, nil
}
