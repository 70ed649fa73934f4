// Package exec provides a deterministic execution engine for simulated
// multithreaded programs following the fork-join model (paper Figure 3).
//
// A program is a sequence of serial and parallel phases. Each thread is an
// ordinary Go function that generates a stream of operations (loads,
// stores, pure compute) through a *T context. The engine interleaves the
// streams of concurrently running threads in virtual-time order: at every
// step the thread with the smallest virtual clock executes its next
// operation against the shared machine (the cache-coherence simulator),
// which returns the operation's latency and advances that thread's clock.
//
// This yields a fully deterministic, reproducible execution whose
// interleavings respect the latency feedback loop that false sharing
// creates (a thread stalled on coherence misses falls behind, exactly as a
// real core would), while thread bodies remain natural imperative code.
//
// Profilers and detectors observe the execution through the Probe
// interface. A probe may charge overhead cycles to the observed thread,
// which is how the reproduction measures (rather than asserts) profiling
// overhead in paper Figure 4.
package exec

import (
	"fmt"

	"repro/internal/mem"
)

// Machine is the memory system under the engine; implemented by the cache
// simulator.
type Machine interface {
	// Access performs one access by a core at virtual time now (cycles),
	// returning its latency in cycles. The engine presents accesses in
	// non-decreasing now order.
	Access(core int, addr mem.Addr, write bool, now uint64) uint32
	// Cores returns the number of cores available for thread placement.
	Cores() int
}

// ThreadInfo describes a simulated thread to probes.
type ThreadInfo struct {
	// ID is the engine-wide thread id; the main thread is 0.
	ID mem.ThreadID
	// Core is the core the thread is bound to (threads are bound, as in
	// the paper's evaluation setup).
	Core int
	// Phase is the index of the phase the thread belongs to.
	Phase int
	// Start and End are the thread's lifetime in cycles. End is zero in
	// ThreadStart callbacks.
	Start, End uint64
	// Instrs is the thread's retired instruction count. It is zero in
	// ThreadStart callbacks and final in ThreadEnd callbacks; trace
	// recording uses it to reconstruct compute that follows the thread's
	// last memory access.
	Instrs uint64
	// Reused marks a pooled thread re-entering a later phase; probes that
	// charge per-thread setup costs (PMU register programming) skip
	// reused threads, since the real cost is paid once per pthread.
	Reused bool
}

// Runtime returns the thread's execution time in cycles, the analog of the
// paper's RDTSC-based RT_t measurement.
func (t ThreadInfo) Runtime() uint64 { return t.End - t.Start }

// PhaseInfo describes a serial or parallel phase to probes.
type PhaseInfo struct {
	// Index is the phase's position in the program.
	Index int
	// Name is the workload-supplied phase label.
	Name string
	// Parallel reports whether the phase runs more than the main thread.
	Parallel bool
	// Start and End are the phase boundaries in cycles. End is zero in
	// PhaseStart callbacks.
	Start, End uint64
}

// Length returns the phase duration in cycles (zero until PhaseEnd).
func (p PhaseInfo) Length() uint64 {
	if p.End < p.Start {
		return 0
	}
	return p.End - p.Start
}

// Probe observes an execution. Implementations must be cheap; they run
// inline with the simulation. ThreadStart and Access return overhead
// cycles the engine charges to the thread's virtual clock, modelling the
// real cost of PMU setup and sample handling.
type Probe interface {
	// ProgramStart fires once before the first phase.
	ProgramStart(name string, cores int)
	// PhaseStart and PhaseEnd bracket each phase.
	PhaseStart(ph PhaseInfo)
	PhaseEnd(ph PhaseInfo)
	// ThreadStart fires when a thread begins; the returned cycles are
	// charged to the thread before it executes (PMU-register setup cost,
	// paper §4.1).
	ThreadStart(th ThreadInfo) uint64
	// ThreadEnd fires when a thread's body returns.
	ThreadEnd(th ThreadInfo)
	// Access fires for every memory access with its resolved latency and
	// the thread's cumulative instruction count; the returned cycles are
	// charged to the thread (sample-handler cost).
	Access(a mem.Access, instrs uint64) uint64
	// ProgramEnd fires once with the final virtual time.
	ProgramEnd(totalCycles uint64)
}

// BaseProbe is a Probe with no-op methods, for embedding.
type BaseProbe struct{}

// ProgramStart implements Probe.
func (BaseProbe) ProgramStart(string, int) {}

// PhaseStart implements Probe.
func (BaseProbe) PhaseStart(PhaseInfo) {}

// PhaseEnd implements Probe.
func (BaseProbe) PhaseEnd(PhaseInfo) {}

// ThreadStart implements Probe.
func (BaseProbe) ThreadStart(ThreadInfo) uint64 { return 0 }

// ThreadEnd implements Probe.
func (BaseProbe) ThreadEnd(ThreadInfo) {}

// Access implements Probe.
func (BaseProbe) Access(mem.Access, uint64) uint64 { return 0 }

// ProgramEnd implements Probe.
func (BaseProbe) ProgramEnd(uint64) {}

// Body is a thread function: it issues operations through t and returns
// when the thread's work is done. Bodies must be oblivious — their access
// sequence may not depend on simulated memory contents — which holds for
// every workload in the evaluation.
type Body func(t *T)

// Phase is one serial or parallel region of a program.
type Phase struct {
	// Name labels the phase in reports.
	Name string
	// Bodies holds one function per thread. A phase with exactly one body
	// and Serial==true runs on the main thread; otherwise each body gets
	// a fresh thread id.
	Bodies []Body
	// Serial marks main-thread-only phases.
	Serial bool
	// Pooled reuses worker thread ids across pooled phases, modelling
	// programs that create a thread pool once and drive it through
	// barriers (PARSEC's streamcluster). Body i of every pooled phase
	// runs as the same thread id.
	Pooled bool
}

// SerialPhase builds a serial phase.
func SerialPhase(name string, body Body) Phase {
	return Phase{Name: name, Bodies: []Body{body}, Serial: true}
}

// ParallelPhase builds a parallel phase with the given thread bodies.
func ParallelPhase(name string, bodies ...Body) Phase {
	return Phase{Name: name, Bodies: bodies}
}

// PooledPhase builds a parallel phase whose workers come from the
// program's persistent thread pool.
func PooledPhase(name string, bodies ...Body) Phase {
	return Phase{Name: name, Bodies: bodies, Pooled: true}
}

// Program is a fork-join program: serial and parallel phases in order.
type Program struct {
	// Name identifies the workload.
	Name string
	// Phases run sequentially.
	Phases []Phase
}

// ThreadRecord summarizes one thread's execution.
type ThreadRecord struct {
	ID          mem.ThreadID
	Core        int
	Phase       int
	Start, End  uint64
	Instrs      uint64
	MemAccesses uint64
	MemCycles   uint64
}

// Runtime returns the thread's execution time in cycles.
func (r ThreadRecord) Runtime() uint64 { return r.End - r.Start }

// PhaseRecord summarizes one phase.
type PhaseRecord struct {
	Index      int
	Name       string
	Parallel   bool
	Start, End uint64
}

// Length returns the phase duration in cycles.
func (r PhaseRecord) Length() uint64 { return r.End - r.Start }

// Result is the outcome of running a program.
type Result struct {
	// TotalCycles is the program's end-to-end virtual runtime, the analog
	// of wall-clock time in the paper's experiments.
	TotalCycles uint64
	// Phases and Threads record per-phase and per-thread timing.
	Phases  []PhaseRecord
	Threads []ThreadRecord
}

// Accesses returns the total simulated memory accesses across all
// threads. The per-thread counts are part of the result payload, so the
// sum survives serialization.
func (r Result) Accesses() uint64 {
	var n uint64
	for _, th := range r.Threads {
		n += th.MemAccesses
	}
	return n
}

// Config tunes engine costs.
type Config struct {
	// ThreadCreateCycles is the serial cost, on the spawning timeline, of
	// creating one thread (pthread_create analog). Thread i of a phase
	// starts i*ThreadCreateCycles after the phase begins.
	ThreadCreateCycles uint64
	// ThreadJoinCycles is the serial cost of joining each thread at phase
	// end.
	ThreadJoinCycles uint64
	// OpBuffer is the size of each thread's operation buffer; generation
	// runs ahead of simulation by at most one buffer. Buffer boundaries
	// never change the schedule, so the size trades only memory against
	// hand-off overhead.
	OpBuffer int
	// Unbatched selects the per-op reference loop (simulateRef) instead
	// of the batched timeslice runner on the sorted run queue (see
	// runSlice). Both produce byte-identical results —
	// TestBatchedUnbatchedEquivalence enforces it — so the flag trades
	// only engine time; it exists as the oracle for that suite and for
	// bisecting hot-path regressions.
	Unbatched bool
}

// DefaultConfig returns the engine defaults used by the evaluation.
func DefaultConfig() Config {
	return Config{
		ThreadCreateCycles: 2500,
		ThreadJoinCycles:   800,
		OpBuffer:           512,
	}
}

// Engine runs programs against a machine under a set of probes.
type Engine struct {
	machine Machine
	probes  []Probe
	cfg     Config
	nextTID mem.ThreadID
	pool    []mem.ThreadID
	clock   uint64
	result  Result
	// spare pools retired threads' op buffers (cfg.OpBuffer-sized, the
	// engine's dominant allocation) for reuse by later phases and runs.
	spare [][]op
}

// New creates an engine. Probes observe every execution run on it.
func New(machine Machine, cfg Config, probes ...Probe) *Engine {
	if cfg.OpBuffer <= 0 {
		cfg.OpBuffer = DefaultConfig().OpBuffer
	}
	return &Engine{machine: machine, probes: probes, cfg: cfg}
}

// Run executes the program to completion and returns its timing record.
// A panicking thread body fails the run: once the rest of its phase has
// drained, Run panics with the body's *BodyPanic.
func (e *Engine) Run(p Program) Result {
	e.nextTID = mem.MainThread
	e.pool = nil
	e.clock = 0
	e.result = Result{}
	for _, pr := range e.probes {
		pr.ProgramStart(p.Name, e.machine.Cores())
	}
	for i, ph := range p.Phases {
		e.runPhase(i, ph)
	}
	e.result.TotalCycles = e.clock
	for _, pr := range e.probes {
		pr.ProgramEnd(e.clock)
	}
	mProgramsRun.Inc()
	return e.result
}

// runPhase executes one phase, advancing the global clock to its end.
func (e *Engine) runPhase(idx int, ph Phase) {
	if len(ph.Bodies) == 0 {
		return
	}
	if ph.Serial && len(ph.Bodies) != 1 {
		panic(fmt.Sprintf("exec: serial phase %q has %d bodies", ph.Name, len(ph.Bodies)))
	}
	info := PhaseInfo{Index: idx, Name: ph.Name, Parallel: !ph.Serial, Start: e.clock}
	for _, pr := range e.probes {
		pr.PhaseStart(info)
	}

	threads := make([]*thread, len(ph.Bodies))
	// Thread and generator-context structs come from two per-phase slabs
	// (and op buffers from the engine's pool), so a phase costs O(1)
	// allocations regardless of thread count.
	slab := make([]thread, len(ph.Bodies))
	tslab := make([]T, len(ph.Bodies))
	// Probe setup costs (PMU register programming) run in the creating
	// thread, so they serialize: every thread's start is pushed back by
	// the setup of the threads created before it. This is why the paper's
	// thread-heavy applications (kmeans, x264) pay the highest profiling
	// overhead (§4.1).
	var setupDelay uint64
	for i, body := range ph.Bodies {
		var tid mem.ThreadID
		var core int
		reused := false
		start := e.clock + setupDelay
		switch {
		case ph.Serial:
			tid = mem.MainThread
			core = 0
		case ph.Pooled && i < len(e.pool):
			tid = e.pool[i]
			core = e.coreFor(i)
			reused = true
		default:
			e.nextTID++
			tid = e.nextTID
			core = e.coreFor(i)
			start += uint64(i) * e.cfg.ThreadCreateCycles
			if ph.Pooled {
				e.pool = append(e.pool, tid)
			}
		}
		var charge uint64
		for _, pr := range e.probes {
			charge += pr.ThreadStart(ThreadInfo{ID: tid, Core: core, Phase: idx, Start: start, Reused: reused})
		}
		th := &slab[i]
		initThread(th, &tslab[i], tid, core, idx, i, start, e.takeBuf(), e.takeBuf(), body)
		th.vtime += charge
		setupDelay += charge
		threads[i] = th
	}

	mPhasesRun.Inc()
	mQueueDepth.Set(int64(len(threads)))
	e.simulate(threads)
	for _, th := range threads {
		if th.panicked != nil {
			panic(th.panicked)
		}
	}

	end := e.clock
	for _, th := range threads {
		if th.vtime > end {
			end = th.vtime
		}
	}
	if !ph.Serial {
		end += uint64(len(threads)) * e.cfg.ThreadJoinCycles
	}
	e.clock = end
	info.End = end
	for _, pr := range e.probes {
		pr.PhaseEnd(info)
	}
	e.result.Phases = append(e.result.Phases, PhaseRecord{
		Index: idx, Name: ph.Name, Parallel: !ph.Serial, Start: info.Start, End: end,
	})
}

// coreFor maps a phase-local thread index to a core, round-robin when a
// phase has more threads than cores (violating paper Assumption 1, which
// the detector tolerates by design).
func (e *Engine) coreFor(i int) int {
	c := e.machine.Cores()
	if c == 1 {
		return 0
	}
	// Core 0 is reserved for the main thread where possible, matching the
	// paper's thread-binding setup.
	return 1 + i%(c-1)
}

// simulate interleaves the phase's threads in (vtime, id) order: on the
// sorted run queue, a timeslice per round (runSlice), or one op at a
// time through the reference loop when Config.Unbatched is set.
func (e *Engine) simulate(threads []*thread) {
	if e.cfg.Unbatched {
		e.simulateRef(threads)
		return
	}
	q := newSortedQueue(len(threads))
	for _, th := range threads {
		if e.startThread(th) {
			q.Push(th)
		}
	}
	for q.Len() > 0 {
		th := q.Min()
		vt, id := q.NextKey()
		if e.runSlice(th, vt, id) {
			q.FixMin()
		} else {
			q.PopMin()
			e.finishThread(th)
		}
	}
}

// startThread launches th's generator and takes its first op buffer. A
// body that issues no operation finishes at once, and startThread
// reports false.
func (e *Engine) startThread(th *thread) bool {
	th.startGen()
	if th.refill() {
		return true
	}
	e.finishThread(th)
	return false
}

// simulateRef is the per-op reference loop, the oracle the batched
// equivalence suites check runSlice and the sorted queue against. It
// shares no scheduling code with them: before every op it scans the
// runnable threads for the least (vtime, id) and runs that thread's
// next op. The key is total, so the order of runnable is irrelevant,
// and choosing per op makes the schedule independent of compute-op
// granularity (one Compute(n) or any split summing to n), which trace
// replay relies on: traces keep instruction deltas, not op boundaries.
func (e *Engine) simulateRef(threads []*thread) {
	runnable := make([]*thread, 0, len(threads))
	for _, th := range threads {
		if e.startThread(th) {
			runnable = append(runnable, th)
		}
	}
	for len(runnable) > 0 {
		mi := 0
		for i, th := range runnable {
			if m := runnable[mi]; th.vtime < m.vtime || (th.vtime == m.vtime && th.id < m.id) {
				mi = i
			}
		}
		th := runnable[mi]
		op := th.buf[th.pos]
		th.pos++
		e.apply(th, op)
		if th.pos == len(th.buf) && !th.refill() {
			last := len(runnable) - 1
			runnable[mi] = runnable[last]
			runnable = runnable[:last]
			e.finishThread(th)
		}
	}
}

// apply executes one operation on behalf of th.
func (e *Engine) apply(th *thread, op op) {
	switch op.kind {
	case opCompute:
		th.vtime += uint64(op.n)
		th.instrs += uint64(op.n)
	default:
		write := op.kind == opStore
		lat := e.machine.Access(th.core, op.addr, write, th.vtime)
		th.instrs++
		th.memAccesses++
		th.memCycles += uint64(lat)
		acc := mem.Access{
			Addr:    op.addr,
			Thread:  th.id,
			Kind:    mem.Read,
			Size:    op.size,
			Latency: lat,
			Time:    th.vtime,
		}
		if write {
			acc.Kind = mem.Write
		}
		th.vtime += uint64(lat)
		for _, pr := range e.probes {
			th.vtime += pr.Access(acc, th.instrs)
		}
	}
}

// finishThread records a completed thread and notifies probes.
func (e *Engine) finishThread(th *thread) {
	info := ThreadInfo{ID: th.id, Core: th.core, Phase: th.phase, Start: th.start, End: th.vtime, Instrs: th.instrs}
	for _, pr := range e.probes {
		pr.ThreadEnd(info)
	}
	e.result.Threads = append(e.result.Threads, ThreadRecord{
		ID: th.id, Core: th.core, Phase: th.phase,
		Start: th.start, End: th.vtime,
		Instrs: th.instrs, MemAccesses: th.memAccesses, MemCycles: th.memCycles,
	})
	mThreadsRun.Inc()
	mAccesses.Add(th.memAccesses)
	mMemCycles.Add(th.memCycles)
	mInstrs.Add(th.instrs)
	// Reclaim the thread's op buffers. The generator has exited — refill
	// saw out closed, which the goroutine does after its final flush — so
	// its last buffer and anything parked in free are quiescent.
	if b := th.t.buf; b != nil {
		e.spare = append(e.spare, b)
		th.t.buf = nil
	}
drain:
	for {
		select {
		case b := <-th.free:
			e.spare = append(e.spare, b)
		default:
			break drain
		}
	}
}

// takeBuf returns an empty op buffer of the engine's configured size,
// reusing a retired thread's buffer when one is pooled.
func (e *Engine) takeBuf() []op {
	if n := len(e.spare); n > 0 {
		b := e.spare[n-1]
		e.spare = e.spare[:n-1]
		if cap(b) >= e.cfg.OpBuffer {
			return b[:0]
		}
	}
	return make([]op, 0, e.cfg.OpBuffer)
}
