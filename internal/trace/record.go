package trace

import (
	"strings"

	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/symtab"
)

// recorderState is the shared machinery of both recorders: it tracks
// the current phase, streams events to the encoder, and emits the
// memory-layout metadata (objects, symbols) at program end. The first
// encoding error is latched and later writes are skipped; probes cannot
// fail an execution, so callers check Err after the run.
type recorderState struct {
	enc   Encoder
	heap  *heap.Heap
	syms  *symtab.Table
	phase int
	err   error
	// machine is the non-canonical machine-model preset the recording run
	// simulates; empty (the canonical default) stamps nothing, so traces
	// from default runs stay byte-identical to pre-model recordings.
	machine string
}

func (r *recorderState) emit(ev Event) {
	if r.err != nil {
		return
	}
	r.err = r.enc.Encode(ev)
}

func (r *recorderState) programStart(name string, cores int) {
	r.phase = 0
	r.emit(Event{Kind: KindProgram, Name: name, Cores: cores})
	if r.machine != "" {
		r.emit(Event{Kind: KindNote, Name: machineNote + r.machine})
	}
}

// machineNote prefixes the provenance note naming the machine-model
// preset a recording simulated.
const machineNote = "machine="

// MachineNote returns the machine-model preset a trace's notes record
// (the `machine=<preset>` note the recorders stamp), or "" when they
// record none, as traces of canonical-default runs do.
func MachineNote(notes []string) string {
	for _, n := range notes {
		if name, ok := strings.CutPrefix(n, machineNote); ok {
			return name
		}
	}
	return ""
}

// emitLayout snapshots the memory layout at program end, so objects a
// program allocates mid-run are captured too. End-of-run is also when
// the profiler resolves sampled addresses (§2.4 reports "at the end of
// an execution"), so restoring this snapshot up front on replay yields
// the same resolution the recorded run saw.
func (r *recorderState) emitLayout() {
	if r.syms != nil {
		for _, s := range r.syms.Symbols() {
			r.emit(Event{Kind: KindSymbol, Name: s.Name, Addr: s.Addr, Size: s.Size})
		}
	}
	if r.heap != nil {
		for _, o := range r.heap.Objects() {
			r.emit(Event{
				Kind: KindObject, Addr: o.Addr, Size: o.Size, Class: o.ClassSize,
				TID: o.Thread, Seq: o.Seq, Live: o.Live, Stack: o.Stack,
			})
		}
	}
}

func (r *recorderState) phaseStart(ph exec.PhaseInfo) {
	r.phase = ph.Index
	r.emit(Event{Kind: KindPhase, Phase: ph.Index, Parallel: ph.Parallel, Name: ph.Name})
}

func (r *recorderState) threadEnd(th exec.ThreadInfo) {
	r.emit(Event{Kind: KindThreadEnd, TID: th.ID, Phase: th.Phase, Instrs: th.Instrs})
}

func (r *recorderState) access(a mem.Access, instrs uint64) {
	r.emit(Event{
		Kind: KindAccess, TID: a.Thread, Write: a.Kind.IsWrite(),
		Addr: a.Addr, Size: uint64(a.Size), IP: instrs, Lat: a.Latency,
		Phase: r.phase,
	})
}

func (r *recorderState) programEnd() {
	r.emitLayout()
	if r.err == nil {
		r.err = r.enc.Close()
	}
}

// Recorder is an exec.Probe that writes every simulated access of an
// execution to a trace — the full-fidelity mode behind the round-trip
// guarantee. It charges zero overhead cycles, so attaching it does not
// perturb the run: a trace recorded alongside a profiler replays to that
// profiler's exact report.
type Recorder struct {
	exec.BaseProbe
	s recorderState
}

// NewRecorder creates a full recorder streaming to enc. h and syms (both
// optional) supply the layout metadata that lets a replayed trace
// resolve objects to allocation sites and global names.
func NewRecorder(enc Encoder, h *heap.Heap, syms *symtab.Table) *Recorder {
	return &Recorder{s: recorderState{enc: enc, heap: h, syms: syms}}
}

// Err returns the first error encountered while writing the trace.
func (r *Recorder) Err() error { return r.s.err }

// SetMachine records the machine-model fingerprint to stamp into the
// trace as a `machine=<preset>` provenance note (machine.Fingerprint;
// empty = canonical default, stamped as nothing). Call before the run.
func (r *Recorder) SetMachine(fp string) { r.s.machine = fp }

// ProgramStart implements exec.Probe.
func (r *Recorder) ProgramStart(name string, cores int) { r.s.programStart(name, cores) }

// PhaseStart implements exec.Probe.
func (r *Recorder) PhaseStart(ph exec.PhaseInfo) { r.s.phaseStart(ph) }

// ThreadEnd implements exec.Probe.
func (r *Recorder) ThreadEnd(th exec.ThreadInfo) { r.s.threadEnd(th) }

// Access implements exec.Probe, recording the access at zero cost.
func (r *Recorder) Access(a mem.Access, instrs uint64) uint64 {
	r.s.access(a, instrs)
	return 0
}

// ProgramEnd implements exec.Probe, flushing the encoder.
func (r *Recorder) ProgramEnd(uint64) { r.s.programEnd() }

// SampledRecorder hooks the PMU delivery path instead of the engine:
// only addresses an IBS/PEBS-style sampler would deliver are written,
// which is what recording on real hardware yields. Sampled traces are
// compact and replayable (each access keeps its instruction offset), but
// they do not carry the full access stream, so replaying one approximates
// rather than reproduces the original detection report.
type SampledRecorder struct {
	exec.BaseProbe
	s   recorderState
	pmu *pmu.PMU
}

// NewSampledRecorder creates a sampled recorder with its own PMU using
// cfg's period, mode and jitter. Handler and setup costs are forced to
// zero so the recording PMU never perturbs the run it observes.
func NewSampledRecorder(cfg pmu.Config, enc Encoder, h *heap.Heap, syms *symtab.Table) *SampledRecorder {
	cfg.HandlerCycles = 0
	cfg.SetupCycles = 0
	sr := &SampledRecorder{s: recorderState{enc: enc, heap: h, syms: syms}}
	sr.pmu = pmu.New(cfg, sr)
	return sr
}

// Probes returns the probe chain to attach to an engine: the sampling
// PMU and the recorder's phase tracker.
func (sr *SampledRecorder) Probes() []exec.Probe { return []exec.Probe{sr.pmu, sr} }

// Err returns the first error encountered while writing the trace.
func (sr *SampledRecorder) Err() error { return sr.s.err }

// SetMachine records the machine-model fingerprint to stamp into the
// trace, as Recorder.SetMachine.
func (sr *SampledRecorder) SetMachine(fp string) { sr.s.machine = fp }

// Sample implements pmu.Handler, recording each delivered sample.
func (sr *SampledRecorder) Sample(a mem.Access, instrs uint64) { sr.s.access(a, instrs) }

// ProgramStart implements exec.Probe.
func (sr *SampledRecorder) ProgramStart(name string, cores int) { sr.s.programStart(name, cores) }

// PhaseStart implements exec.Probe.
func (sr *SampledRecorder) PhaseStart(ph exec.PhaseInfo) { sr.s.phaseStart(ph) }

// ThreadEnd implements exec.Probe.
func (sr *SampledRecorder) ThreadEnd(th exec.ThreadInfo) { sr.s.threadEnd(th) }

// ProgramEnd implements exec.Probe, flushing the encoder.
func (sr *SampledRecorder) ProgramEnd(uint64) { sr.s.programEnd() }
