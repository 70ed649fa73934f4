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
// (full traces only). Ranged and indexed traces stream phase by phase;
// the rest load in full. Either way the report is byte-identical, so
// the load path is no part of a cell's identity. Build panics on
// unreadable or malformed trace files — the same contract as registered
// workloads, whose Build cannot fail; callers wanting a diagnostic run
// ValidateTraceName first.
func traceWorkload(name string) *Workload {
	path, lo, hi, ranged := splitTraceName(name)
	return &Workload{
		Name:           name,
		Suite:          "trace",
		DefaultThreads: 16,
		TotalThreads:   func(perPhase int) int { return perPhase },
		Build: func(sys *cheetah.System, p Params) cheetah.Program {
			if !ranged && !trace.FileIsIndexed(path) {
				rp, err := trace.ReadFile(path)
				if err != nil {
					panic(fmt.Sprintf("workload: opening trace: %v", err))
				}
				if err := rp.Prepare(sys.Heap(), sys.Globals()); err != nil {
					panic(fmt.Sprintf("workload: preparing trace %s: %v", path, err))
				}
				return rp.Program()
			}
			sr, err := trace.OpenStream(path)
			if err != nil {
				panic(fmt.Sprintf("workload: opening trace: %v", err))
			}
			if err := sr.Prepare(sys.Heap(), sys.Globals()); err != nil {
				panic(fmt.Sprintf("workload: preparing trace %s: %v", path, err))
			}
			if ranged {
				return sr.ProgramRange(lo, hi)
			}
			return sr.Program()
		},
	}
}

// ValidateTraceName rehearses the load path Build would take for the
// named trace workload, returning the error Build would panic with.
func ValidateTraceName(name string) error {
	path, _, _, ranged := splitTraceName(name)
	if ranged || trace.FileIsIndexed(path) {
		return trace.ValidateStream(path)
	}
	return trace.Validate(path)
}
