// Package cheetah is a from-scratch reproduction of "Cheetah: Detecting
// False Sharing Efficiently and Effectively" (Tongping Liu and Xu Liu,
// CGO 2016).
//
// Cheetah is a lightweight profiler that detects false sharing in
// multithreaded programs using PMU address sampling, and — its headline
// contribution — predicts the speedup of fixing each instance without
// actually fixing it.
//
// Because real PMUs cannot be driven faithfully from Go, the reproduction
// runs programs on a simulated multicore machine: a MESI cache-coherence
// simulator supplies access latencies and ground-truth invalidations, a
// deterministic engine interleaves simulated threads in virtual-time
// order, and an IBS/PEBS-style sampler delivers address samples with
// latency to the profiler. The profiler itself — two-entry-table
// invalidation detection, word-granularity true/false sharing
// discrimination, and the EQ(1)-EQ(4) impact assessment — is implemented
// exactly as the paper describes.
//
// # Quick start
//
//	sys := cheetah.New(cheetah.Config{Cores: 8})
//	obj := sys.Heap().Malloc(0, 4096, heap.Stack(heap.Frame{File: "app.c", Line: 42}))
//	prog := cheetah.Program{
//		Name: "quickstart",
//		Phases: []cheetah.Phase{
//			cheetah.ParallelPhase("work", bodies...),
//		},
//	}
//	report, _ := sys.Profile(prog, cheetah.ProfileOptions{})
//	fmt.Print(report.Format())
package cheetah

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/machine"
	"repro/internal/pmu"
	"repro/internal/symtab"
)

// Re-exported program-construction types: programs are sequences of
// serial and parallel phases whose thread bodies issue loads, stores and
// compute through a *T.
type (
	// Program is a fork-join simulated program.
	Program = exec.Program
	// Phase is one serial or parallel region.
	Phase = exec.Phase
	// Body is a thread function.
	Body = exec.Body
	// T is the context thread bodies issue operations through.
	T = exec.T
	// Result is an execution's timing record.
	Result = exec.Result
	// Report is the profiler's output.
	Report = core.Report
	// Instance is one reported false sharing instance.
	Instance = core.Instance
)

// SerialPhase builds a main-thread-only phase.
func SerialPhase(name string, body Body) Phase { return exec.SerialPhase(name, body) }

// ParallelPhase builds a phase with one thread per body.
func ParallelPhase(name string, bodies ...Body) Phase {
	return exec.ParallelPhase(name, bodies...)
}

// PooledPhase builds a parallel phase whose workers come from the
// program's persistent thread pool (threads are created once and reused
// across pooled phases, as in barrier-driven programs like streamcluster).
func PooledPhase(name string, bodies ...Body) Phase {
	return exec.PooledPhase(name, bodies...)
}

// Config assembles a simulated system.
type Config struct {
	// Cores is the machine size; defaults to the machine model's core
	// count (48 for the canonical opteron48).
	Cores int
	// Machine is the hardware model: topology, line geometry, latency
	// table, coherence protocol. The zero value means the canonical
	// opteron48 (machine.Default()), which reproduces the pre-model
	// behavior byte for byte.
	Machine machine.Model
	// Cache overrides the machine configuration; zero derives the
	// calibrated config from Machine and Cores.
	Cache cache.Config
	// Engine overrides engine costs; zero uses defaults.
	Engine exec.Config
	// Heap and Globals override the memory-layout segments.
	Heap    heap.Config
	Globals symtab.Config
}

// ProfileOptions tunes a profiled run.
type ProfileOptions struct {
	// PMU configures sampling; zero uses the paper's 64K-instruction
	// period with the calibrated handler and setup costs.
	PMU pmu.Config
	// MinInvalidations and MinImprovement are reporting thresholds; zero
	// uses the defaults.
	MinInvalidations uint64
	MinImprovement   float64
}

// System is a simulated machine plus the memory layout (heap and globals)
// programs allocate from. Each Run gets a fresh, cold machine so results
// are reproducible and comparable; the memory layout persists, since it
// is part of the program under test.
type System struct {
	cfg     Config
	model   machine.Model
	heap    *heap.Heap
	globals *symtab.Table
}

// New creates a system. Zero-value fields get evaluation defaults.
func New(cfg Config) *System {
	model := cfg.Machine
	if model.IsZero() {
		model = machine.Default()
	}
	if cfg.Cores == 0 {
		cfg.Cores = model.Cores()
	} else {
		model = model.WithCores(cfg.Cores)
	}
	cfg.Machine = model
	if cfg.Cache.Cores == 0 {
		cfg.Cache = cache.ConfigFor(model)
	}
	if cfg.Engine.OpBuffer == 0 {
		// Zero-value engine costs get the defaults; the engine-loop
		// choice rides along untouched (Unbatched alone does not imply
		// custom costs).
		unbatched := cfg.Engine.Unbatched
		cfg.Engine = exec.DefaultConfig()
		cfg.Engine.Unbatched = unbatched
	}
	if cfg.Heap.Size == 0 {
		cfg.Heap = heap.DefaultConfig()
	}
	if cfg.Globals.Size == 0 {
		cfg.Globals = symtab.DefaultConfig()
	}
	return &System{
		cfg:     cfg,
		model:   cfg.Machine,
		heap:    heap.New(cfg.Heap),
		globals: symtab.New(cfg.Globals),
	}
}

// Model returns the machine model the system simulates.
func (s *System) Model() machine.Model { return s.model }

// Heap returns the application heap; workloads allocate through it so the
// profiler can resolve objects to call sites.
func (s *System) Heap() *heap.Heap { return s.heap }

// Globals returns the symbol table; workloads define global variables
// through it.
func (s *System) Globals() *symtab.Table { return s.globals }

// Cores returns the machine size.
func (s *System) Cores() int { return s.cfg.Cores }

// Run executes the program natively (no profiler) on a fresh machine.
func (s *System) Run(p Program) Result {
	return s.RunWith(p)
}

// RunWith executes the program on a fresh machine under the given probes.
func (s *System) RunWith(p Program, probes ...exec.Probe) Result {
	res, _ := s.RunTraced(p, probes...)
	return res
}

// RunTraced executes the program on a fresh machine under the given
// probes and additionally returns the machine, whose ground-truth
// coherence counters (per-line invalidations, hit/miss breakdown)
// validation experiments consult.
func (s *System) RunTraced(p Program, probes ...exec.Probe) (Result, *cache.Sim) {
	sim := cache.New(s.cfg.Cache)
	eng := exec.New(sim, s.cfg.Engine, probes...)
	res := eng.Run(p)
	// Directory occupancy is sampled once per run, after the fact: each
	// run gets a fresh machine, so a live per-access gauge would cost hot
	// cycles for a number that only settles here.
	lines := int64(sim.DirLines())
	mDirLines.Set(lines)
	mDirLinesMax.SetMax(lines)
	return res, sim
}

// NewProfiler builds a Cheetah profiler wired to this system's heap and
// symbol table.
func (s *System) NewProfiler(o ProfileOptions) *core.Profiler {
	opts := core.DefaultOptions(s.heap, s.globals)
	opts.Geometry = s.model.Geometry()
	if o.PMU.Period != 0 {
		opts.PMU = o.PMU
	}
	if o.MinInvalidations != 0 {
		opts.MinInvalidations = o.MinInvalidations
	}
	if o.MinImprovement != 0 {
		opts.MinImprovement = o.MinImprovement
	}
	return core.New(opts)
}

// Profile runs the program under Cheetah on a fresh machine and returns
// the false sharing report and the (profiler-overhead-inclusive) timing.
func (s *System) Profile(p Program, o ProfileOptions) (*Report, Result) {
	prof := s.NewProfiler(o)
	res := s.RunWith(p, prof.Probes()...)
	return prof.Report(), res
}
