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
// Sections down.
const sectionHeader = "OOSECT\x01"

// ErrHorizon refuses a checkpoint in a layout older than the envelope: the
// older six-letter envelopes, bare JSON and the partitioned router's, which
// this version no longer reads. Other first bytes are damage, not ErrHorizon.
var ErrHorizon = errors.New("checkpoint layout predates OOSECT v1, the one this version reads: restore it with a build of commit 2999302, the last that reads it, and checkpoint it again")

// Seal returns what write writes, behind the envelope's header. The body is
// buffered, so a layer that fails leaves nothing to be written.
func Seal(write func(io.Writer) error) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 15, 4096))
	if err := write(buf); err != nil {
		return nil, err
	}
	blob := buf.Bytes()
	copy(blob, sectionHeader)
	binary.LittleEndian.PutUint32(blob[7:11], uint32(len(blob)-15))
	binary.LittleEndian.PutUint32(blob[11:15], crc32.ChecksumIEEE(blob[15:]))
	return blob, nil
}

// WriteSection writes v as the next section of a checkpoint body.
func WriteSection(w io.Writer, v any) error { return json.NewEncoder(w).Encode(v) }

// Sections is a checkpoint body opened for restore.
type Sections struct {
	dec *json.Decoder
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

// Open reads a checkpoint and returns its sections. Length and CRC32 are
// checked before any record is decoded; the records are outside input all
// the same, and each layer checks its own. A nil r is no checkpoint: nil
// Sections, from which each layer builds fresh.
func Open(r io.Reader) (*Sections, error) {
	if r == nil {
		return nil, nil
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read checkpoint: %w", err)
	}
	switch n := min(len(data), len(sectionHeader)); {
	case olderLayout(data):
		return nil, ErrHorizon
	case string(data[:n]) != sectionHeader[:n]:
		return nil, fmt.Errorf("checkpoint header %q is not the envelope's %q: damaged, or not a checkpoint", data[:n], sectionHeader)
	case len(data) < 15:
		return nil, fmt.Errorf("checkpoint header truncated: %d bytes", len(data))
	}
	// The declared length is outside input: it is checked against the bytes
	// present, never allocated.
	size := binary.LittleEndian.Uint32(data[7:11])
	if uint64(size) > uint64(len(data)-15) {
		return nil, fmt.Errorf("checkpoint truncated: want %d payload bytes, got %d", size, len(data)-15)
	}
	payload, rest := data[15:15+size], data[15+size:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[11:15]); got != want {
		return nil, fmt.Errorf("checkpoint corrupt: CRC32 %08x, want %08x", got, want)
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("checkpoint has %d bytes after its payload", len(rest))
	}
	return &Sections{dec: json.NewDecoder(bytes.NewReader(payload))}, nil
}

// olderLayout reports whether data begins as a layout older than the
// envelope: a JSON object (the bare records and the partitioned router's
// parts) or another "OO" magic of four capitals. Such a magic differs from
// the envelope's in at least two letters, as every older one does, so that
// one damaged byte of this envelope's magic reads as damage.
func olderLayout(data []byte) bool {
	if len(data) > 0 && data[0] == '{' {
		return true
	}
	if len(data) < 6 || string(data[:2]) != "OO" {
		return false
	}
	differ := 0
	for i := 2; i < 6; i++ {
		if data[i] < 'A' || data[i] > 'Z' {
			return false
		}
		if data[i] != sectionHeader[i] {
			differ++
		}
	}
	return differ >= 2
}
