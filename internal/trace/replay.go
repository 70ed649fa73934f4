package trace

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/symtab"
)

// replayOp is one reconstructed thread operation: the compute gap since
// the previous access (derived from consecutive ip values) followed by
// the access itself. The gap, width and direction share one word,
// gap<<16 | size<<8 | write, so an operation costs 16 bytes; gaps are
// ip deltas, which MaxInstrs bounds far below 2^48.
type replayOp struct {
	addr mem.Addr
	bits uint64
}

// accessOp builds the operation replaying access ev at addr after gap
// compute instructions. Size 0 (imported traces with unknown width)
// replays as a word access; every other width, which the caller has
// checked fits a byte, replays as recorded.
func accessOp(gap uint64, addr mem.Addr, ev *Event) replayOp {
	size := ev.Size
	if size == 0 {
		size = 4
	}
	bits := gap<<16 | size<<8
	if ev.Write {
		bits |= 1
	}
	return replayOp{addr: addr, bits: bits}
}

// replayThread accumulates one thread's stream within one phase.
type replayThread struct {
	ops []replayOp
	// lastIP is the retired instruction count at the last access.
	lastIP uint64
	// endInstrs is the thread's final instruction count (from the
	// threadend event); compute past the last access is reconstructed
	// from it.
	endInstrs uint64
	sawEnd    bool
}

// replayPhase is one reconstructed phase.
type replayPhase struct {
	name     string
	parallel bool
	declared bool
	threads  map[mem.ThreadID]*replayThread
}

func (p *replayPhase) thread(tid mem.ThreadID) *replayThread {
	t := p.threads[tid]
	if t == nil {
		t = &replayThread{}
		p.threads[tid] = t
	}
	return t
}

// tids returns the phase's thread ids in ascending order — the order the
// engine originally created them in, so replay reassigns the same ids.
func (p *replayPhase) tids() []mem.ThreadID {
	out := make([]mem.ThreadID, 0, len(p.threads))
	for tid := range p.threads {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Replay is a decoded trace, ready to be turned back into a runnable
// program. Use Read to build one, Prepare to install its memory layout
// into a system, and Program to obtain the reconstructed program.
type Replay struct {
	// Name and Cores identify the recorded program and machine size.
	// Detection reports replayed on a machine with Cores cores under the
	// recording PMU configuration are byte-identical to the original
	// run's (for full traces).
	Name  string
	Cores int
	// Symbols and Objects are the recorded memory layout (end-of-run
	// snapshot).
	Symbols []symtab.Symbol
	Objects []heap.Object
	// Accesses counts the trace's data records.
	Accesses uint64
	// Notes are the trace's provenance notes (`key=value` text) in stream
	// order — importer skip tallies, the recording machine model, etc.
	// Notes carry no replayable records, so they never affect the
	// reconstructed program; callers interpret the keys they know.
	Notes []string

	phases   map[int]*replayPhase
	maxPhase int
	prepared bool
}

// ReadFile decodes the trace file at path.
func ReadFile(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Validate rehearses the whole replay pipeline — decode, memory-layout
// restore and synthesis, program assembly — against a scratch default
// memory layout, returning the error any stage would surface. Callers
// that cannot tolerate a late failure (the workload registry's Build
// cannot return errors and panics instead) validate up front.
func Validate(path string) error {
	rp, err := ReadFile(path)
	if err != nil {
		return err
	}
	if err := rp.Prepare(heap.New(heap.Config{}), symtab.New(symtab.Config{})); err != nil {
		return err
	}
	rp.Program()
	return nil
}

// Read decodes a whole trace (text or binary framing) into a Replay. The
// stream is processed record by record; only the compacted per-thread
// operation lists are retained.
func Read(r io.Reader) (*Replay, error) {
	rp := &Replay{phases: make(map[int]*replayPhase), maxPhase: -1}
	d := NewDecoder(r)
	sawProgram := false
	var ev Event
	for {
		err := d.nextInto(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case KindProgram:
			if sawProgram {
				return nil, fmt.Errorf("trace: duplicate #program record")
			}
			sawProgram = true
			rp.Name = ev.Name
			rp.Cores = ev.Cores
		case KindSymbol:
			rp.Symbols = append(rp.Symbols, symtab.Symbol{Name: ev.Name, Addr: ev.Addr, Size: ev.Size})
		case KindObject:
			rp.Objects = append(rp.Objects, heap.Object{
				Addr: ev.Addr, Size: ev.Size, ClassSize: ev.Class,
				Thread: ev.TID, Seq: ev.Seq, Live: ev.Live, Stack: ev.Stack,
			})
		case KindNote:
			rp.Notes = append(rp.Notes, ev.Name)
		case KindPhase:
			ph := rp.phase(ev.Phase)
			ph.name = ev.Name
			ph.parallel = ev.Parallel
			ph.declared = true
		case KindThreadEnd:
			t := rp.phase(ev.Phase).thread(ev.TID)
			t.endInstrs = ev.Instrs
			t.sawEnd = true
		case KindAccess:
			if ev.Size > 255 {
				return nil, fmt.Errorf("trace: access size %d unsupported (max 255)", ev.Size)
			}
			rp.Accesses++
			t := rp.phase(ev.Phase).thread(ev.TID)
			var gap uint64
			if ev.IP > t.lastIP {
				gap = ev.IP - t.lastIP - 1
				t.lastIP = ev.IP
			}
			t.ops = append(t.ops, accessOp(gap, ev.Addr, &ev))
		}
	}
	if !sawProgram {
		return nil, fmt.Errorf("trace: missing #program record")
	}
	if rp.Cores == 0 {
		rp.Cores = 1
	}
	// A phase declared serial must be exactly the main thread.
	for idx, ph := range rp.phases {
		if !ph.declared || ph.parallel {
			continue
		}
		for tid := range ph.threads {
			if tid != mem.MainThread {
				return nil, fmt.Errorf("trace: serial phase %d has records for thread %d", idx, tid)
			}
		}
	}
	return rp, nil
}

func (rp *Replay) phase(idx int) *replayPhase {
	ph := rp.phases[idx]
	if ph == nil {
		ph = &replayPhase{threads: make(map[mem.ThreadID]*replayThread)}
		rp.phases[idx] = ph
	}
	if idx > rp.maxPhase {
		rp.maxPhase = idx
	}
	return ph
}

// Prepare installs the trace's memory layout into a system's heap and
// symbol table. Traces recorded by this package restore exactly: every
// object reappears at its original address with its original call
// stack, and in-segment addresses replay verbatim. Foreign addresses
// outside every simulated segment (real-hardware stacks and mmap
// ranges) are synthesized into fresh heap objects with `trace:N` call
// sites. Prepare must run before Program.
//
// Trace files are external input, so Prepare converts any panic from
// the layout machinery (e.g. heap exhaustion while synthesizing foreign
// runs) into an error.
func (rp *Replay) Prepare(h *heap.Heap, syms *symtab.Table) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trace: preparing replay: %v", r)
		}
	}()
	for _, s := range rp.Symbols {
		if err := syms.Restore(s); err != nil {
			return err
		}
	}
	for _, o := range rp.Objects {
		if err := h.Restore(o); err != nil {
			return err
		}
	}
	if err := rp.synthesize(h, syms); err != nil {
		return err
	}
	rp.prepared = true
	return nil
}

// lineRun is a maximal run of consecutive touched cache lines.
type lineRun struct {
	start mem.Addr // base address of the first line
	bytes uint64
	// mappedTo is the synthesized object base the run was remapped onto
	// (heap synthesis only).
	mappedTo mem.Addr
}

func (r lineRun) contains(a mem.Addr) bool { return a >= r.start && a < r.start.Add(int(r.bytes)) }

// synthesize handles addresses outside every simulated segment —
// foreign traces recorded on real hardware (stacks, 0x7f.. mmap ranges).
// Contiguous runs of touched out-of-segment cache lines become fresh
// heap objects with `trace:N` call sites, and their accesses are
// remapped onto them so the profiler can attribute the sharing.
// Addresses inside the heap or globals segments are left verbatim
// whether or not an object covers them: the profiler accepts them by
// region exactly as it did during recording (unresolved ones report as
// unknown objects), which is what keeps replayed reports identical.
func (rp *Replay) synthesize(h *heap.Heap, syms *symtab.Table) error {
	var heapLines []uint64
	seen := make(map[uint64]bool)
	rp.eachOp(func(op *replayOp) {
		if h.Contains(op.addr) || syms.Contains(op.addr) {
			return
		}
		if line := op.addr.Line(); !seen[line] {
			seen[line] = true
			heapLines = append(heapLines, line)
		}
	})
	if len(heapLines) == 0 {
		return nil
	}
	heapRuns := lineRuns(heapLines)
	for i := range heapRuns {
		site := heap.Stack(heap.Frame{Func: "trace", File: "trace", Line: i + 1})
		heapRuns[i].mappedTo = h.Malloc(mem.MainThread, heapRuns[i].bytes, site)
	}
	rp.eachOp(func(op *replayOp) {
		op.addr = remapForeign(heapRuns, op.addr)
	})
	return nil
}

// remapForeign translates an address covered by a synthesized run onto
// its replacement object; addresses outside every run pass through.
func remapForeign(runs []lineRun, addr mem.Addr) mem.Addr {
	j := sort.Search(len(runs), func(j int) bool {
		return runs[j].start.Add(int(runs[j].bytes)) > addr
	})
	if j < len(runs) && runs[j].contains(addr) {
		return runs[j].mappedTo + (addr - runs[j].start)
	}
	return addr
}

// eachOp visits every access operation in deterministic order.
func (rp *Replay) eachOp(fn func(op *replayOp)) {
	for idx := 0; idx <= rp.maxPhase; idx++ {
		ph := rp.phases[idx]
		if ph == nil {
			continue
		}
		for _, tid := range ph.tids() {
			ops := ph.threads[tid].ops
			for i := range ops {
				fn(&ops[i])
			}
		}
	}
}

// lineRuns groups sorted line indices into maximal contiguous runs.
func lineRuns(lines []uint64) []lineRun {
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	var runs []lineRun
	for i := 0; i < len(lines); {
		j := i + 1
		for j < len(lines) && lines[j] == lines[j-1]+1 {
			j++
		}
		runs = append(runs, lineRun{
			start: mem.LineAddr(lines[i]),
			bytes: uint64(j-i) * mem.LineSize,
		})
		i = j
	}
	return runs
}

// Program reconstructs the deterministic fork-join program. Phases keep
// their recorded indices (gaps become empty phases the engine skips),
// each phase's bodies reissue its threads' exact access streams with the
// recorded compute gaps in ascending-thread-id order, and phases whose
// threads reappear in other parallel phases become pooled — so the
// engine reassigns the original thread ids and the unchanged simulator
// reproduces the recorded execution.
func (rp *Replay) Program() exec.Program {
	if !rp.prepared {
		panic("trace: Replay.Program called before Prepare")
	}
	// A thread id seen in more than one parallel phase is a pooled
	// worker; every phase it appears in ran on the persistent pool.
	appearances := make(map[mem.ThreadID]int)
	for _, ph := range rp.phases {
		if !rp.isParallel(ph) {
			continue
		}
		for tid := range ph.threads {
			appearances[tid]++
		}
	}
	prog := exec.Program{Name: rp.Name}
	for idx := 0; idx <= rp.maxPhase; idx++ {
		ph := rp.phases[idx]
		if ph == nil {
			// Preserve recorded phase indices across gaps; the engine
			// skips body-less phases without notifying probes.
			prog.Phases = append(prog.Phases, exec.Phase{})
			continue
		}
		name := ph.name
		if name == "" {
			name = fmt.Sprintf("phase%d", idx)
		}
		if !rp.isParallel(ph) {
			t := ph.threads[mem.MainThread]
			body := bodyFor(t)
			prog.Phases = append(prog.Phases, exec.SerialPhase(name, body))
			continue
		}
		pooled := false
		bodies := make([]exec.Body, 0, len(ph.threads))
		for _, tid := range ph.tids() {
			if appearances[tid] > 1 {
				pooled = true
			}
			bodies = append(bodies, bodyFor(ph.threads[tid]))
		}
		prog.Phases = append(prog.Phases, exec.Phase{Name: name, Bodies: bodies, Pooled: pooled})
	}
	return prog
}

// isParallel reports whether a phase replays as parallel: declared
// phases say so themselves; undeclared (foreign) phases are serial only
// when their sole thread is the main thread.
func (rp *Replay) isParallel(ph *replayPhase) bool {
	if ph.declared {
		return ph.parallel
	}
	if len(ph.threads) != 1 {
		return true
	}
	_, onlyMain := ph.threads[mem.MainThread]
	return !onlyMain
}

// bodyFor builds the thread body replaying t's operation stream. t may
// be nil (a declared serial phase with no records), which yields an
// empty body.
func bodyFor(rt *replayThread) exec.Body {
	if rt == nil {
		return func(*exec.T) {}
	}
	ops, trailing := rt.ops, rt.trailing()
	return func(t *exec.T) {
		replayOps(t, ops)
		if trailing > 0 {
			t.Compute(int(trailing))
		}
	}
}

// trailing returns the pure compute after the thread's last access:
// endInstrs counts the accesses themselves, and lastIP is the
// instruction index of the final access.
func (rt *replayThread) trailing() uint64 {
	if rt.sawEnd && rt.endInstrs > rt.lastIP {
		return rt.endInstrs - rt.lastIP
	}
	return 0
}

// replayOps issues ops through t, each access after its compute gap.
func replayOps(t *exec.T, ops []replayOp) {
	for i := range ops {
		op := &ops[i]
		if gap := op.bits >> 16; gap > 0 {
			t.Compute(int(gap))
		}
		if size := uint8(op.bits >> 8); op.bits&1 != 0 {
			t.StoreN(op.addr, size)
		} else {
			t.LoadN(op.addr, size)
		}
	}
}
