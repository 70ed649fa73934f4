// Package trace makes memory-access traces a first-class Program source:
// any simulated execution can be recorded to a portable trace file, and
// any trace file can be replayed through the unchanged simulator and
// profiler as if it were a hand-written workload.
//
// This mirrors how the real Cheetah consumes PMU address samples from
// arbitrary binaries (paper §2.1, §3.1): the trace is the interchange
// format between the machine that observed the accesses and the machine
// that analyzes them.
//
// # Format
//
// A trace is a stream of events in one of two framings sharing the same
// schema version:
//
//   - a line-oriented text form in the style of a perf mem script dump.
//     Data rows are `tid op addr size ip lat phase`; metadata rows
//     (program identity, heap objects with allocation call stacks, global
//     symbols, phase structure, per-thread instruction totals) are
//     `#`-prefixed directives, so naive line tools can process the data
//     rows alone.
//   - a compact binary framing (magic-prefixed, varint-encoded) for large
//     traces. The binary framing is itself versioned: v2 delta-encodes
//     the hot columns per thread as zigzag varints, and the decoder
//     auto-detects v1 or v2 from the magic, so old corpus files decode
//     forever.
//
// The `ip` column is the simulated instruction pointer: the thread's
// retired instruction count at the access. Consecutive ip values encode
// the compute between two accesses, which is what lets the replayer
// rebuild an exec.Program whose instruction stream — and therefore whose
// PMU sampling, cache behaviour and detection report — is identical to
// the recorded run's. The `lat` column carries the recorded access
// latency for external analysis; replay recomputes latencies through the
// simulator rather than trusting the file.
//
// Both encoder and decoder stream: neither ever holds the whole trace in
// memory (the replayer accumulates only the compacted per-thread
// operation lists it needs to build a Program).
//
// # Round-trip guarantee
//
// Recording every access of a workload (Recorder) and replaying the trace
// on a machine with the same core count and profiling the result with the
// same PMU configuration yields a detection report byte-identical to
// profiling the original program directly. Sampled traces
// (SampledRecorder) trade that guarantee for small files; they replay as
// an approximation that preserves each access's instruction offset.
package trace

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/heap"
	"repro/internal/mem"
)

// Version is the trace schema version, shared by both framings.
const Version = 1

// Kind discriminates trace events.
type Kind uint8

const (
	// KindProgram identifies the recorded program (name, core count).
	// It is the first event of every well-formed trace.
	KindProgram Kind = iota + 1
	// KindSymbol declares one global variable (layout metadata; the
	// recorders emit it at end of stream, reflecting end-of-run state).
	KindSymbol
	// KindObject declares one heap allocation with its call stack
	// (layout metadata, emitted like KindSymbol).
	KindObject
	// KindPhase declares a serial or parallel phase at the point it
	// starts.
	KindPhase
	// KindThreadEnd records a thread leaving a phase with its final
	// retired instruction count.
	KindThreadEnd
	// KindAccess is one memory access: the `tid op addr size ip lat
	// phase` data row.
	KindAccess
	// KindNote is free-form provenance metadata (`key=value` text): the
	// importers record skip/drop tallies and source descriptions here.
	// Notes never influence replay; decoders that predate them reject
	// the trace (schema growth is versioned by presence, not by bumping
	// Version — old corpus files never carry notes).
	KindNote
)

// Decoder sanity caps. Traces are external input, so structural fields
// are bounded before any allocation is sized from them.
const (
	// MaxStringLen bounds names, file paths and text lines.
	MaxStringLen = 1 << 20
	// MaxPhaseIndex bounds phase indices.
	MaxPhaseIndex = 1 << 16
	// MaxThreadID bounds thread ids.
	MaxThreadID = 1 << 20
	// MaxInstrs bounds instruction counts (the access ip column and
	// thread-end totals). Replay turns ip deltas into simulated compute
	// and PMU counter advances, so an unbounded value would make a
	// hostile trace replay effectively forever; 2^40 instructions is
	// orders of magnitude past the largest paper-scale run.
	MaxInstrs = 1 << 40
	// MaxFrames bounds call-stack depth in object events (the paper's
	// collector keeps five; imported traces get slack).
	MaxFrames = 64
)

// Event is one element of a trace stream. Kind selects which fields are
// meaningful; unrelated fields are zero.
type Event struct {
	Kind Kind

	// Name is the program name (KindProgram), symbol name (KindSymbol),
	// phase name (KindPhase) or note text (KindNote).
	Name string
	// Cores is the recorded machine size (KindProgram).
	Cores int

	// TID is the accessing (KindAccess) or ending (KindThreadEnd)
	// thread.
	TID mem.ThreadID
	// Write distinguishes stores from loads (KindAccess).
	Write bool
	// Addr is the accessed address (KindAccess), or the base address of
	// a symbol (KindSymbol) or object (KindObject).
	Addr mem.Addr
	// Size is the access width in bytes (KindAccess), or the
	// symbol/object requested size (KindSymbol, KindObject).
	Size uint64
	// IP is the thread's retired instruction count at the access
	// (KindAccess).
	IP uint64
	// Lat is the recorded access latency in cycles (KindAccess).
	Lat uint32
	// Phase is the phase the event belongs to (KindAccess,
	// KindThreadEnd), or the declared index (KindPhase).
	Phase int

	// Parallel marks parallel phases (KindPhase).
	Parallel bool

	// Instrs is the thread's final retired instruction count
	// (KindThreadEnd).
	Instrs uint64

	// Class, Seq, Live and Stack carry heap-object metadata
	// (KindObject): the power-of-two allocation unit, the allocation
	// sequence number, liveness at snapshot time, and the allocation
	// call stack.
	Class uint64
	Seq   uint64
	Live  bool
	Stack heap.CallStack
}

// Encoder writes a stream of events in one framing. Close flushes
// buffered output but does not close the underlying writer.
type Encoder interface {
	Encode(ev Event) error
	Close() error
}

// Decoder reads a stream of events, auto-detecting the framing.
type Decoder struct {
	// next is the text framing's decoder; bd is set for binary streams,
	// which Next drives directly.
	next func() (Event, error)
	bd   *binaryDecoder
	err  error
}

// NewDecoder wraps r, detecting text or binary framing from the first
// byte. The framing error, if any, surfaces from the first Next call.
func NewDecoder(r io.Reader) *Decoder {
	br := bufio.NewReaderSize(r, 1<<16)
	d := &Decoder{}
	head, err := br.Peek(1)
	switch {
	case err != nil:
		d.err = fmt.Errorf("trace: empty or unreadable input: %w", err)
	case head[0] == '#':
		d.next, d.err = newTextDecoder(br)
	case head[0] == 0x00:
		d.bd, d.err = newBinaryDecoder(br)
	default:
		d.err = fmt.Errorf("trace: unrecognized framing (first byte %#02x; want '#' for text or 0x00 for binary)", head[0])
	}
	return d
}

// Framing names the detected framing ("text", "binary v1", ...); empty
// until detection succeeds.
func (d *Decoder) Framing() string {
	if d.bd != nil {
		return fmt.Sprintf("binary v%d", d.bd.version)
	}
	if d.next != nil {
		return "text"
	}
	return ""
}

// Indexed reports whether the stream ended at a valid seekable index
// block. Meaningful only after Next has returned io.EOF.
func (d *Decoder) Indexed() bool { return d.bd != nil && d.bd.sawIndex }

// Next returns the next event, or io.EOF at a clean end of stream. After
// any non-nil error the decoder is exhausted.
func (d *Decoder) Next() (Event, error) {
	var ev Event
	err := d.nextInto(&ev)
	return ev, err
}

// nextInto is Next decoding into a caller-owned event, which spares the
// in-package readers Next's copy of the large Event per record.
func (d *Decoder) nextInto(ev *Event) error {
	if d.err != nil {
		*ev = Event{}
		return d.err
	}
	var err error
	if d.bd != nil {
		err = d.bd.nextInto(ev)
	} else {
		*ev, err = d.next()
	}
	if err != nil {
		d.err = err
	}
	return err
}
