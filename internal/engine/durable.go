package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// This file is the one durable format: a checkpoint is one envelope
//
//	magic "OOSECT", version byte 1, body length uint32le, CRC32 (IEEE) uint32le
//
// around one JSON value per layer record, outermost first (DESIGN.md §8).
// Only the outermost writer seals it; each layer's Checkpoint writes its
// record with WriteSection and hands the same writer to its inner engine,
// and each Restore reads its record with Sections.Next and hands the
// Sections down. Open reads every layout this module has written: the
// three older envelopes share the header, and the layouts that nested the
// layer beneath as a base64 blob become the same section sequence.
var (
	sectionMagic = [6]byte{'O', 'O', 'S', 'E', 'C', 'T'}
	// Read only: the recovery store's envelope (payload {..., "engine":
	// blob}), the kernel's (payload its record) and the aggregation
	// operator's (payload its record, the inner checkpoint after it).
	storeMagic  = [6]byte{'O', 'O', 'R', 'C', 'P', 'T'}
	kernelMagic = [6]byte{'O', 'O', 'C', 'K', 'P', 'T'}
	aggMagic    = [6]byte{'O', 'O', 'A', 'G', 'G', 'T'}
	// versions is the one version each magic was written at.
	versions = map[[6]byte]byte{sectionMagic: 1, storeMagic: 1, kernelMagic: 2, aggMagic: 1}
)

// Seal returns what write writes, behind the envelope's header. The body is
// buffered, so a layer that fails leaves nothing to be written.
func Seal(write func(io.Writer) error) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 15, 4096))
	if err := write(buf); err != nil {
		return nil, err
	}
	blob := buf.Bytes()
	copy(blob, sectionMagic[:])
	blob[6] = versions[sectionMagic]
	binary.LittleEndian.PutUint32(blob[7:11], uint32(len(blob)-15))
	binary.LittleEndian.PutUint32(blob[11:15], crc32.ChecksumIEEE(blob[15:]))
	return blob, nil
}

// WriteSection writes v as the next section of a checkpoint body.
func WriteSection(w io.Writer, v any) error { return json.NewEncoder(w).Encode(v) }

// Sections is a checkpoint body opened for restore.
type Sections struct {
	dec *json.Decoder
	// Parts is how many records each layer reads in a row: 1, or the shard
	// count of a checkpoint written by the key-partitioned router this
	// library had until EXPERIMENTS.md E34, whose shards' records come
	// layer by layer for each layer to merge into one engine.
	Parts int
	// Keyless counts the events that router refused for lacking the key.
	Keyless uint64
}

// Next decodes the next section, the record of the layer named layer, into
// v. member is a member only that layer's record carries: a section without
// it is another layer's record and is refused, so a checkpoint restores only
// through the layers that wrote it. An empty member takes any section, as a
// tool listing a checkpoint's sections does.
func (s *Sections) Next(layer, member string, v any) error {
	var raw json.RawMessage
	if err := s.dec.Decode(&raw); errors.Is(err, io.EOF) {
		return fmt.Errorf("checkpoint holds no %s record", layer)
	} else if err != nil {
		return fmt.Errorf("decode %s record: %w", layer, err)
	}
	var members map[string]json.RawMessage
	if member != "" && (json.Unmarshal(raw, &members) != nil || members[member] == nil) {
		return fmt.Errorf("checkpoint section %.40s is not the %s's record: it has no %q", raw, layer, member)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("decode %s record: %w", layer, err)
	}
	return nil
}

// More reports whether another section follows.
func (s *Sections) More() bool { return s.dec.More() }

// Done refuses sections left after the outermost layer restored: they are
// the records of layers the configured engine does not have. A nil
// Sections, an engine built fresh, is done.
func (s *Sections) Done() error {
	if s != nil && s.More() {
		return errors.New("checkpoint holds sections the configured engine has no layer for: it was written under another strategy or query")
	}
	return nil
}

// Open is the one sniff: it reads a checkpoint in any layout this module
// has written and returns its sections. Length and CRC32 are checked before
// any record is decoded; the records are outside input all the same, and
// each layer checks its own. A nil r is no checkpoint: nil Sections, from
// which each layer builds fresh.
func Open(r io.Reader) (*Sections, error) {
	if r == nil {
		return nil, nil
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read checkpoint: %w", err)
	}
	var f flattener
	if err := f.layout(data, 0); err != nil {
		return nil, err
	}
	return &Sections{dec: json.NewDecoder(bytes.NewReader(bytes.Join(f.out, []byte{'\n'}))), Parts: max(f.parts, 1), Keyless: f.keyless}, nil
}

// readHeader validates the envelope at the start of data and returns its
// magic, its payload and what follows the payload.
func readHeader(data []byte) (magic [6]byte, payload, rest []byte, err error) {
	if len(data) < 15 {
		return magic, nil, nil, fmt.Errorf("checkpoint header truncated: %d bytes", len(data))
	}
	magic = [6]byte(data[:6])
	if want, ok := versions[magic]; !ok {
		return magic, nil, nil, fmt.Errorf("bad checkpoint magic %q", data[:6])
	} else if data[6] != want {
		return magic, nil, nil, fmt.Errorf("checkpoint %s envelope version %d, want %d", data[:6], data[6], want)
	}
	// The declared length is outside input: it is checked against the bytes
	// present, never allocated.
	size := binary.LittleEndian.Uint32(data[7:11])
	if uint64(size) > uint64(len(data)-15) {
		return magic, nil, nil, fmt.Errorf("checkpoint truncated: want %d payload bytes, got %d", size, len(data)-15)
	}
	payload, rest = data[15:15+size], data[15+size:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[11:15]); got != want {
		return magic, nil, nil, fmt.Errorf("checkpoint corrupt: CRC32 %08x, want %08x", got, want)
	}
	return magic, payload, rest, nil
}

// flattener turns an old layout into sections.
type flattener struct {
	out     [][]byte
	parts   int
	keyless uint64
}

// layout appends the sections of one checkpoint: the sectioned envelope's
// body as it is, or those of an old layout: an older envelope, or a stream
// of JSON objects each followed by the sections of the blob it nests (the
// store's "engine", the levee's "inner", the hybrid's "kernel", each
// query's "engine" in a set, the router's "parts").
func (f *flattener) layout(data []byte, depth int) error {
	data = bytes.TrimLeft(data, " \t\r\n")
	if depth > 16 {
		return errors.New("checkpoint nests deeper than 16 layers")
	} else if len(data) == 0 {
		return errors.New("checkpoint truncated: no record")
	}
	if data[0] != '{' {
		magic, payload, rest, err := readHeader(data)
		switch {
		case err != nil:
			return err
		case magic == aggMagic:
			f.out = append(f.out, payload)
			return f.layout(rest, depth+1)
		case len(rest) > 0:
			return fmt.Errorf("checkpoint has %d bytes after its payload", len(rest))
		case magic == sectionMagic && depth > 0:
			return errors.New("a sectioned checkpoint nested in an old layout")
		case magic == sectionMagic:
			f.out = append(f.out, payload)
			return nil
		}
		data = payload
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return fmt.Errorf("decode checkpoint: %w", err)
		}
		if err := f.object(raw, depth); err != nil {
			return err
		}
	}
}

// object appends one JSON object of an old layout, less the blob it nests,
// then the blob's sections.
func (f *flattener) object(raw json.RawMessage, depth int) error {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return fmt.Errorf("decode checkpoint: %w", err)
	}
	var blobs [][]byte
	take := func(m map[string]json.RawMessage, name string) error {
		if b, ok := m[name]; ok {
			delete(m, name)
			var blob []byte
			if err := json.Unmarshal(b, &blob); err != nil {
				return fmt.Errorf("decode checkpoint member %q: %w", name, err)
			}
			blobs = append(blobs, blob)
		}
		return nil
	}
	switch {
	case obj["parts"] != nil:
		return f.router(raw, depth)
	case obj["queries"] != nil:
		var queries []map[string]json.RawMessage
		if err := json.Unmarshal(obj["queries"], &queries); err != nil {
			return fmt.Errorf("decode checkpoint member \"queries\": %w", err)
		}
		for _, q := range queries {
			if err := take(q, "engine"); err != nil {
				return err
			}
		}
		obj["queries"], _ = json.Marshal(queries)
	default:
		for _, name := range []string{"engine", "inner", "kernel"} {
			if err := take(obj, name); err != nil {
				return err
			}
		}
	}
	raw, _ = json.Marshal(obj)
	if obj["queries"] != nil && obj["k"] != nil {
		// A set written before it sat behind a levee kept the levee's buffer
		// record in its own object: the object is both records.
		f.out = append(f.out, raw)
	}
	f.out = append(f.out, raw)
	for _, blob := range blobs {
		if err := f.layout(blob, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// router appends the shards' sections of a partitioned checkpoint, layer by
// layer: each shard's first record, then each shard's second, and so on.
func (f *flattener) router(raw json.RawMessage, depth int) error {
	var r struct {
		Shards      int      `json:"shards"`
		RouteErrors uint64   `json:"routeErrors"`
		Parts       [][]byte `json:"parts"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("decode partitioned checkpoint: %w", err)
	}
	if len(r.Parts) == 0 || len(r.Parts) != r.Shards {
		return fmt.Errorf("partitioned checkpoint holds %d parts for %d shards", len(r.Parts), r.Shards)
	}
	shards := make([]flattener, len(r.Parts))
	for i, part := range r.Parts {
		if err := shards[i].layout(part, depth+1); err != nil {
			return fmt.Errorf("part %d: %w", i, err)
		}
		if f.parts > 0 || shards[i].parts > 0 || len(shards[i].out) != len(shards[0].out) {
			return fmt.Errorf("part %d: not one engine's checkpoint like part 0's", i)
		}
	}
	for j := range shards[0].out {
		for _, sh := range shards {
			f.out = append(f.out, sh.out[j])
		}
	}
	f.parts, f.keyless = len(r.Parts), r.RouteErrors
	return nil
}
