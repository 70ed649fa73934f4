package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	cheetah "repro"
	"repro/internal/baseline"
	"repro/internal/machine"
	"repro/internal/obs"
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

// cell is a memoized in-flight or finished job. Consumers treat the
// result's report and findings as read-only — cells are shared between
// experiments.
type cell struct {
	key  Cell
	done chan struct{}
	out  CellResult
}

// wait blocks until the cell has run and returns its output.
func (c *cell) wait() CellResult {
	<-c.done
	return c.out
}

// Runner schedules experiment cells over a bounded worker pool.
type Runner struct {
	sem chan struct{}

	mu sync.Mutex
	// cells memoizes by Cell, which captures everything a simulated
	// outcome depends on.
	cells map[Cell]*cell
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
		cells: make(map[Cell]*cell),
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
// first time the cell is seen. The machine preset is canonicalized and
// trace workloads get their content hash filled in here, so every path
// that submits cells — the experiments and benchmarks — shares one
// identity rule.
func (r *Runner) submit(k Cell) *cell {
	k.Machine = canonMachine(k.Machine)
	if k.TraceHash == "" {
		k.TraceHash = r.traceHashFor(k.Workload)
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
			c.out = runCell(c.key)
			end := time.Now()
			mCellsExecuted.Inc()
			mCellSeconds.Observe(end.Sub(start).Seconds())
			if obs.TracingEnabled() {
				obs.Span("harness", "cell", start, end, 0, map[string]any{
					"workload": c.key.Workload, "kind": c.key.Kind,
					"threads": c.key.Threads, "cores": c.key.Cores,
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
func runCell(k Cell) CellResult {
	w, ok := workload.ByName(k.Workload)
	if !ok {
		panic(fmt.Sprintf("harness: unknown workload %q", k.Workload))
	}
	m, ok := machine.Preset(k.Machine)
	if !ok {
		panic(fmt.Sprintf("harness: unknown machine preset %q", k.Machine))
	}
	sys := cheetah.New(cheetah.Config{Cores: k.Cores, Machine: m})
	prog := w.Build(sys, workload.Params{Threads: k.Threads, Scale: k.Scale, Fixed: k.Fixed})
	switch k.Kind {
	case KindProfiled:
		rep, res := sys.Profile(prog, cheetah.ProfileOptions{PMU: k.PMU})
		return CellResult{Result: res, Report: rep}
	case KindPredator:
		det := baseline.NewPredator(baseline.DefaultPredatorConfig(), sys.Heap(), sys.Globals())
		res := sys.RunWith(prog, det)
		return CellResult{Result: res, Findings: det.Findings()}
	case KindSheriff:
		det := baseline.NewSheriff(baseline.DefaultSheriffConfig(), sys.Heap(), sys.Globals())
		res := sys.RunWith(prog, det)
		return CellResult{Result: res, Findings: det.Findings()}
	case KindRule:
		two := newTwoEntryCounter(sys)
		own := baseline.NewOwnership()
		res, sim := sys.RunTraced(prog, two, own)
		var truth uint64
		for _, n := range sim.TotalLineInvalidations() {
			truth += n
		}
		return CellResult{Result: res, Rule: &RuleRow{
			App:            k.Workload,
			GroundTruth:    truth,
			TwoEntry:       two.invalidations,
			Ownership:      own.Invalidations,
			TwoEntryBytes:  baseline.TwoEntryBytesPerLine(),
			OwnershipBytes: baseline.OwnershipBytesPerLine(k.Threads),
		}}
	default:
		return CellResult{Result: sys.Run(prog)}
	}
}

// submitKind submits the cell of the given kind for workload name under
// c. Only profiled cells carry c's PMU, so runs that differ only in
// profiler configuration share their native baselines.
func (r *Runner) submitKind(kind, name string, c Config, fixed bool) *cell {
	k := Cell{Kind: kind, Workload: name, Threads: c.Threads, Cores: c.Cores,
		Scale: c.Scale, Fixed: fixed, Machine: c.Machine}
	if kind == KindProfiled {
		k.PMU = c.PMU
	}
	return r.submit(k)
}

// native submits an unprofiled run of the workload under c: the
// ground-truth runtime.
func (r *Runner) native(name string, c Config, fixed bool) *cell {
	return r.submitKind(KindNative, name, c, fixed)
}

// profiled submits a Cheetah-profiled run using c.PMU.
func (r *Runner) profiled(name string, c Config, fixed bool) *cell {
	return r.submitKind(KindProfiled, name, c, fixed)
}

// predator submits a run under the Predator-style full instrumenter.
func (r *Runner) predator(name string, c Config, fixed bool) *cell {
	return r.submitKind(KindPredator, name, c, fixed)
}

// sheriff submits a run under the Sheriff-style page-diff detector.
func (r *Runner) sheriff(name string, c Config, fixed bool) *cell {
	return r.submitKind(KindSheriff, name, c, fixed)
}

// rule submits a fully-instrumented traced run for the rule ablation:
// both counting rules plus the coherence ground truth. Rule cells are
// memoized like any other, so the ablation's expensive traced runs are
// shared across experiments.
func (r *Runner) rule(name string, c Config) *cell {
	return r.submitKind(KindRule, name, c, false)
}
