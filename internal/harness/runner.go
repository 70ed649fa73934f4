package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	cheetah "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/workload"
)

// This file is the experiment runner: every cell of the evaluation — one
// (workload, variant, thread count, measurement mode) combination — is a
// self-contained job with no shared mutable state (each builds its own
// System, simulator and probes), so cells execute concurrently on a
// bounded worker pool and results are reassembled in the deterministic
// order each experiment defines. Identical cells requested by different
// experiments (Figure 4's native runs are Table 1's baselines; Figure 5's
// case-study report is the Compare matrix's Cheetah run) are executed
// once and shared, which cuts a full RunAll by roughly a fifth even
// before any parallel speedup.
//
// Determinism: the simulator is fully deterministic, so a cell's output
// depends only on its key — never on scheduling. A Runner with Workers=1
// executes cells strictly one at a time and must produce byte-identical
// reports to any parallel configuration (harness tests enforce this).

// cellKind selects what a cell measures.
type cellKind uint8

const (
	// cellNative is an unprofiled run: the ground-truth runtime.
	cellNative cellKind = iota
	// cellProfiled runs under the Cheetah profiler with the key's PMU.
	cellProfiled
	// cellPredator runs under the Predator-style full instrumenter.
	cellPredator
	// cellSheriff runs under the Sheriff-style page-diff detector.
	cellSheriff
	// cellRule is a fully-instrumented traced run feeding the rule
	// ablation: both counting rules plus the coherence ground truth.
	cellRule
)

// cellKey identifies one experiment cell. It is the memoization key, so
// it must capture everything the simulated outcome depends on.
type cellKey struct {
	kind     cellKind
	workload string
	threads  int
	cores    int
	scale    float64
	fixed    bool
	// pmu is the sampling configuration for profiled cells; zero for
	// native and baseline cells, so runs that differ only in profiler
	// configuration share their native baselines.
	pmu pmu.Config
	// machine is the machine-model preset, canonicalized ("" = the
	// canonical opteron48).
	machine string
	// traceHash is the content hash of the trace file for `trace:`
	// workloads ("" otherwise): the cell's outcome depends on the file's
	// bytes, so the bytes join the memoization key.
	traceHash string
}

// cellOut is a finished cell's payload; which fields are set depends on
// the kind. Consumers treat the report and findings as read-only — cells
// are shared between experiments.
type cellOut struct {
	res      exec.Result
	rep      *core.Report
	findings []baseline.Finding
	rule     RuleRow
}

// cell is a memoized in-flight or finished job.
type cell struct {
	key  cellKey
	done chan struct{}
	out  cellOut
}

// wait blocks until the cell has run and returns its output.
func (c *cell) wait() cellOut {
	<-c.done
	return c.out
}

// Runner schedules experiment cells over a bounded worker pool.
type Runner struct {
	sem chan struct{}
	// run executes one cell. It is runCell on ordinary runners; the
	// enumerating runner behind EnumerateCells swaps in a stub so a sweep
	// can be planned without simulating anything.
	run func(cellKey) cellOut

	mu    sync.Mutex
	cells map[cellKey]*cell
	// traceHashes memoizes trace-file content hashes per path for this
	// runner's lifetime. A runner already memoizes whole cells forever,
	// so re-hashing the file on every submit could never change which
	// result is served — it would only re-read the file; one hash per
	// path per runner keeps sweeps over large imported traces cheap.
	traceHashes map[string]string
}

// NewRunner creates a runner executing at most workers cells at once.
// workers <= 0 means GOMAXPROCS; workers == 1 forces serial execution.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		sem:   make(chan struct{}, workers),
		run:   runCell,
		cells: make(map[cellKey]*cell),
	}
}

// defaultRunner backs the package-level experiment functions when the
// caller does not pin a worker count: sharing one memoized runner lets
// different experiments (and different tests of this package) reuse each
// other's cells.
var defaultRunner = sync.OnceValue(func() *Runner { return NewRunner(0) })

// runnerFor picks the runner for a config: the shared default for
// Workers == 0, a private runner for any other value (negative =
// GOMAXPROCS width). Benchmarks and the determinism tests rely on
// private runners actually re-executing their cells.
func runnerFor(c Config) *Runner {
	if c.Workers == 0 {
		return defaultRunner()
	}
	return NewRunner(c.Workers)
}

// CellsRun returns the number of distinct cells executed so far (shared
// cells count once).
func (r *Runner) CellsRun() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cells)
}

// submit returns the memoized cell for k, launching it on the pool the
// first time the key is seen. Trace workloads get their content hash
// folded into the key here, so every path that submits cells — the
// experiments, EnumerateCells, benchmarks — shares one identity rule.
func (r *Runner) submit(k cellKey) *cell {
	if k.traceHash == "" {
		k.traceHash = r.traceHashFor(k.workload)
	}
	r.mu.Lock()
	c, ok := r.cells[k]
	if ok {
		mCellsMemoized.Inc()
	} else {
		c = &cell{key: k, done: make(chan struct{})}
		r.cells[k] = c
		go func() {
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			start := time.Now()
			c.out = r.run(c.key)
			end := time.Now()
			mCellsExecuted.Inc()
			mCellSeconds.Observe(end.Sub(start).Seconds())
			if obs.TracingEnabled() {
				obs.Span("harness", "cell", start, end, 0, map[string]any{
					"workload": c.key.workload, "kind": int(c.key.kind),
					"threads": c.key.threads, "cores": c.key.cores,
				})
			}
			close(c.done)
		}()
	}
	r.mu.Unlock()
	return c
}

// traceHashFor returns the memoized content hash for a trace workload
// ("" for registered workloads), hashing the file once per path per
// runner.
func (r *Runner) traceHashFor(name string) string {
	if !workload.IsTraceName(name) {
		return ""
	}
	r.mu.Lock()
	h, ok := r.traceHashes[name]
	r.mu.Unlock()
	if ok {
		return h
	}
	h = traceHashFor(name)
	r.mu.Lock()
	if r.traceHashes == nil {
		r.traceHashes = make(map[string]string)
	}
	r.traceHashes[name] = h
	r.mu.Unlock()
	return h
}

// runCell executes one cell on a fresh system.
func runCell(k cellKey) cellOut {
	w, ok := workload.ByName(k.workload)
	if !ok {
		panic(fmt.Sprintf("harness: unknown workload %q", k.workload))
	}
	ccfg := cheetah.Config{Cores: k.cores}
	if k.machine != "" {
		m, ok := machine.Preset(k.machine)
		if !ok {
			panic(fmt.Sprintf("harness: unknown machine preset %q", k.machine))
		}
		ccfg.Machine = m
	}
	sys := cheetah.New(ccfg)
	prog := w.Build(sys, workload.Params{Threads: k.threads, Scale: k.scale, Fixed: k.fixed})
	switch k.kind {
	case cellProfiled:
		rep, res := sys.Profile(prog, cheetah.ProfileOptions{PMU: k.pmu})
		return cellOut{res: res, rep: rep}
	case cellPredator:
		det := baseline.NewPredator(baseline.DefaultPredatorConfig(), sys.Heap(), sys.Globals())
		res := sys.RunWith(prog, det)
		return cellOut{res: res, findings: det.Findings()}
	case cellSheriff:
		det := baseline.NewSheriff(baseline.DefaultSheriffConfig(), sys.Heap(), sys.Globals())
		res := sys.RunWith(prog, det)
		return cellOut{res: res, findings: det.Findings()}
	case cellRule:
		two := newTwoEntryCounter(sys)
		own := baseline.NewOwnership()
		res, sim := sys.RunTraced(prog, two, own)
		var truth uint64
		for _, n := range sim.TotalLineInvalidations() {
			truth += n
		}
		return cellOut{res: res, rule: RuleRow{
			App:            k.workload,
			GroundTruth:    truth,
			TwoEntry:       two.invalidations,
			Ownership:      own.Invalidations,
			TwoEntryBytes:  baseline.TwoEntryBytesPerLine(),
			OwnershipBytes: baseline.OwnershipBytesPerLine(k.threads),
		}}
	default:
		return cellOut{res: sys.Run(prog)}
	}
}

// native submits an unprofiled run of the workload under c.
func (r *Runner) native(name string, c Config, fixed bool) *cell {
	return r.submit(cellKey{
		kind: cellNative, workload: name,
		threads: c.Threads, cores: c.Cores, scale: c.Scale, fixed: fixed,
		machine: canonMachine(c.Machine),
	})
}

// profiled submits a Cheetah-profiled run using c.PMU.
func (r *Runner) profiled(name string, c Config, fixed bool) *cell {
	return r.submit(cellKey{
		kind: cellProfiled, workload: name,
		threads: c.Threads, cores: c.Cores, scale: c.Scale, fixed: fixed,
		pmu: c.PMU, machine: canonMachine(c.Machine),
	})
}

// predator submits a Predator-baseline run.
func (r *Runner) predator(name string, c Config, fixed bool) *cell {
	return r.submit(cellKey{
		kind: cellPredator, workload: name,
		threads: c.Threads, cores: c.Cores, scale: c.Scale, fixed: fixed,
		machine: canonMachine(c.Machine),
	})
}

// sheriff submits a Sheriff-baseline run.
func (r *Runner) sheriff(name string, c Config, fixed bool) *cell {
	return r.submit(cellKey{
		kind: cellSheriff, workload: name,
		threads: c.Threads, cores: c.Cores, scale: c.Scale, fixed: fixed,
		machine: canonMachine(c.Machine),
	})
}

// rule submits a fully-instrumented traced run for the rule ablation.
// Rule cells are memoized like any other, so the ablation's expensive
// traced runs are shared across sweeps and shardable across processes.
func (r *Runner) rule(name string, c Config) *cell {
	return r.submit(cellKey{
		kind: cellRule, workload: name,
		threads: c.Threads, cores: c.Cores, scale: c.Scale,
		machine: canonMachine(c.Machine),
	})
}
