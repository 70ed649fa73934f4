// Trace pseudo-workloads: any recorded memory-access trace replays
// through the harness like a built-in benchmark.
package workload

import (
	"fmt"
	"strconv"
	"strings"

	cheetah "repro"
	"repro/internal/trace"
)

// TracePrefix marks trace pseudo-workload names: `trace:<path>` resolves
// to a workload that replays the trace file at <path>. ByName synthesizes
// these on demand, so the harness and both commands can sweep replayed
// traces like any registered cell.
//
// A `@<lo>-<hi>` suffix restricts replay to the inclusive phase range —
// `trace:big.trace@0-63` — the unit of cross-worker trace sharding.
// Ranged names require an indexed trace (they always stream).
const TracePrefix = "trace:"

// IsTraceName reports whether name denotes a trace pseudo-workload.
func IsTraceName(name string) bool { return strings.HasPrefix(name, TracePrefix) }

// splitTraceName splits a trace workload name into its file path and
// optional phase range. Only a well-formed `@<lo>-<hi>` suffix with
// lo <= hi is treated as a range; anything else stays part of the path
// (file names may contain '@').
func splitTraceName(name string) (path string, lo, hi int, ranged bool) {
	path = strings.TrimPrefix(name, TracePrefix)
	at := strings.LastIndexByte(path, '@')
	if at < 0 {
		return path, 0, 0, false
	}
	spec := path[at+1:]
	dash := strings.IndexByte(spec, '-')
	if dash <= 0 {
		return path, 0, 0, false
	}
	l, err1 := strconv.Atoi(spec[:dash])
	h, err2 := strconv.Atoi(spec[dash+1:])
	if err1 != nil || err2 != nil || l < 0 || h < l {
		return path, 0, 0, false
	}
	return path[:at], l, h, true
}

// TracePath returns the trace file path a trace workload name refers
// to, stripped of any phase-range suffix.
func TracePath(name string) string {
	path, _, _, _ := splitTraceName(name)
	return path
}

// traceWorkload synthesizes the pseudo-workload for one trace file. The
// replayed program's structure (threads, phases, work) comes entirely
// from the trace, so Params.Threads, Scale and Fixed are ignored; the
// detection report matches the recorded run's byte for byte when the
// system's core count and the PMU configuration match the recording
// (full traces only). Build opens the trace by OpenTrace's rule and
// panics on unreadable or malformed trace files — the same contract as
// registered workloads, whose Build cannot fail; callers wanting a
// diagnostic run ValidateTraceName first.
func traceWorkload(name string) *Workload {
	return &Workload{
		Name:           name,
		Suite:          "trace",
		DefaultThreads: 16,
		TotalThreads:   func(perPhase int) int { return perPhase },
		Build: func(sys *cheetah.System, p Params) cheetah.Program {
			t, err := OpenTraceName(name)
			if err != nil {
				panic(fmt.Sprintf("workload: opening trace: %v", err))
			}
			if err := t.Prepare(sys); err != nil {
				panic(fmt.Sprintf("workload: preparing trace %s: %v", TracePath(name), err))
			}
			return t.Program()
		},
	}
}

// streams is the one rule for how a trace replays: a phase range or an
// indexed trace streams, each replayed thread reading its own records,
// anything else loads in full. Both print the same report, so the rule
// is no part of a cell's identity; streaming bounds memory per thread
// and verifies each span's checksum before decoding it.
func streams(path string, ranged bool) bool {
	return ranged || trace.FileIsIndexed(path)
}

// Trace is a trace file opened for replay by the streams rule.
type Trace struct {
	// Cores and Notes are the recorded core count and provenance notes.
	Cores int
	Notes []string

	full   *trace.Replay       // loaded in full
	stream *trace.StreamReplay // streamed phase by phase
	// ranged limits a streamed replay to phases lo..hi.
	ranged bool
	lo, hi int
}

// OpenTrace opens the trace file at path the way every replay — the
// cheetah CLI's, and every sweep and gateway cell's — opens it: an
// indexed trace through trace.OpenStream, any other through
// trace.ReadFile.
func OpenTrace(path string) (*Trace, error) { return openTrace(path, false) }

// OpenTraceName opens the trace a `trace:<path>` workload name refers
// to, by OpenTrace's rule; a `@<lo>-<hi>` suffix streams only that
// phase range. The cheetah CLI and trace cells open names through it,
// so a name replays the same program everywhere.
func OpenTraceName(name string) (*Trace, error) {
	path, lo, hi, ranged := splitTraceName(name)
	t, err := openTrace(path, ranged)
	if err != nil {
		return nil, err
	}
	t.ranged, t.lo, t.hi = ranged, lo, hi
	return t, nil
}

func openTrace(path string, ranged bool) (*Trace, error) {
	if !streams(path, ranged) {
		rp, err := trace.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return &Trace{Cores: rp.Cores, Notes: rp.Notes, full: rp}, nil
	}
	sr, err := trace.OpenStream(path)
	if err != nil {
		return nil, err
	}
	return &Trace{Cores: sr.Cores, Notes: sr.Notes, stream: sr}, nil
}

// Prepare installs the trace's memory layout into sys; it must run
// before Program.
func (t *Trace) Prepare(sys *cheetah.System) error {
	if t.stream != nil {
		return t.stream.Prepare(sys.Heap(), sys.Globals())
	}
	return t.full.Prepare(sys.Heap(), sys.Globals())
}

// Program reconstructs the traced program, or the opened phase range of
// it. A streamed trace's bodies panic when a phase fails to load (a
// corrupt payload fails its checksum), which Run re-raises as an
// *exec.BodyPanic.
func (t *Trace) Program() cheetah.Program {
	switch {
	case t.ranged:
		return t.stream.ProgramRange(t.lo, t.hi)
	case t.stream != nil:
		return t.stream.Program()
	}
	return t.full.Program()
}

// ValidateTraceName rehearses the load path Build would take for the
// named trace workload, returning the error Build would panic with.
func ValidateTraceName(name string) error {
	path, _, _, ranged := splitTraceName(name)
	if streams(path, ranged) {
		return trace.ValidateStream(path)
	}
	return trace.Validate(path)
}
