package recovery

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// CountValidCheckpoints reports how many of dir's checkpoint files
// currently parse and pass their integrity checks. Fault-injection
// harnesses use it to decide whether corrupting the newest still leaves
// a valid fallback (corrupting the last valid checkpoint is legitimate
// data loss: its WAL prefix was pruned when it was written).
func CountValidCheckpoints(dir string) int {
	names, err := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"+ckptSuffix))
	if err != nil {
		return 0
	}
	valid := 0
	for _, name := range names {
		if _, _, err := readCkptFile(name); err == nil {
			valid++
		}
	}
	return valid
}

// CorruptNewestCheckpoint flips one payload byte in dir's newest
// checkpoint file. It exists for fault-injection harnesses (the
// supervisor tests and the crash differential check) to exercise the
// corrupt-checkpoint fallback path; it errors if dir holds no checkpoint.
func CorruptNewestCheckpoint(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"+ckptSuffix))
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("no checkpoint in %s", dir)
	}
	sort.Strings(names)
	path := names[len(names)-1]
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(blob) == 0 {
		return fmt.Errorf("%s is empty", path)
	}
	// Flip a byte past the header so the CRC check (not the magic check)
	// catches it when possible.
	pos := len(blob) / 2
	blob[pos] ^= 0x01
	return os.WriteFile(path, blob, 0o644)
}
