package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"oostream"
	"oostream/internal/trace"
)

// sink stands in for esprun's stdout: it counts and checksums the rendered
// bytes, so passes can be compared without keeping their output.
type sink struct {
	bytes int64
	sum   uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s *sink) Write(p []byte) (int, error) {
	s.bytes += int64(len(p))
	s.sum = crc32.Update(s.sum, castagnoli, p)
	return len(p), nil
}

// stateEvery is how many events lie between two samples of the engine's
// state size in the verify pass.
const stateEvery = 256

// openTrace opens a trace file the way esprun does. The returned function
// closes what was opened.
func openTrace(path string) (*trace.Reader, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, closer, err := trace.NewAutoReader(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("open %s: %w", path, err)
	}
	return r, func() {
		if closer != nil {
			closer.Close()
		}
		f.Close()
	}, nil
}

// replay is cmd/esprun's default loop: open the trace, decode one event at
// a time, process it, print each match as a line, flush at end of stream.
// It returns the number of events and results. The untimed verify pass
// hands in a checker, which sees every result (flushed marks those the
// end-of-stream Flush released) and samples the engine every stateEvery
// events; timed passes run with nil.
func replay(path string, en *oostream.Engine, out io.Writer, obs *checker) (events, results int, err error) {
	r, closeTrace, err := openTrace(path)
	if err != nil {
		return 0, 0, err
	}
	defer closeTrace()
	emit := func(ms []oostream.Match, flushed bool) {
		for _, m := range ms {
			results++
			fmt.Fprintln(out, m)
			if obs != nil {
				obs.match(m, flushed)
			}
		}
	}
	var pos oostream.Seq
	for {
		e, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("read %s: %w", path, err)
		}
		pos++
		if e.Seq == 0 {
			e.Seq = pos
		}
		emit(en.Process(e), false)
		if obs != nil && pos%stateEvery == 0 {
			obs.sample(en)
		}
	}
	emit(en.Flush(), true)
	return int(pos), results, nil
}

// pass is what one timed replay of the whole trace cost.
type pass struct {
	Wall    time.Duration
	CPU     time.Duration
	Alloc   uint64
	Events  int
	Results int
	Bytes   int64
	Sum     uint32
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Where a goroutine's frames lie relative to a page boundary moved the
// speculative and native kernels by 10 to 40 % on the machine this was
// written on: the same engine, fed the same events one call deeper, ran a
// third slower, and a few hundred bytes of padding made the difference
// vanish. No caller controls that offset, and any edit that changes a frame
// size above the kernel shifts it. The driver therefore rotates it: pass i
// (and block i of the traced pass) runs stackStep*(i mod stackSlots) bytes
// deeper, so a run samples one page worth of offsets and its summary does
// not depend on which one a build happens to get.
const (
	stackSlots = 8
	stackStep  = 512
)

// atStackOffset calls f below slot+1 extra frames of about stackStep bytes.
//
//go:noinline
func atStackOffset(slot int, f func()) {
	var pad [stackStep]byte
	pad[slot] = 1
	if slot > 0 {
		atStackOffset(slot-1, f)
	} else {
		f()
	}
	if pad[slot] != 1 {
		panic("stack padding overwritten")
	}
}

// timedPass replays the trace through a fresh engine at the given stack
// slot. The engine is built and the heap collected before the clock starts,
// so a pass pays for its own garbage only.
func timedPass(path string, q *oostream.Query, cfg oostream.Config, slot int) (pass, error) {
	en, err := oostream.NewEngine(q, cfg)
	if err != nil {
		return pass{}, err
	}
	var out sink
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	var events, results int
	atStackOffset(slot%stackSlots, func() { events, results, err = replay(path, en, &out, nil) })
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	if err != nil {
		return pass{}, err
	}
	runtime.ReadMemStats(&after)
	return pass{
		Wall: wall, CPU: cpu,
		Alloc:  after.TotalAlloc - before.TotalAlloc,
		Events: events, Results: results, Bytes: out.bytes, Sum: out.sum,
	}, nil
}
