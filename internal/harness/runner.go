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
	// lastUse is the runner's use-sequence number from the most recent
	// submit of this key, the recency signal the cell budget evicts by.
	lastUse uint64
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
	// budget caps how many memoized cells the runner retains; 0 means
	// unbounded. When an insert pushes the map past the cap, finished
	// least-recently-used cells are evicted (in-flight cells and cells a
	// caller already holds a pointer to are unaffected — eviction only
	// forgets the memo, never a running job). A run-once sweep never
	// hits the cap; a daemon submitting jobs for months must not grow
	// without bound, which is why the shared default runner is capped.
	budget int
	// useSeq is a monotonic counter stamped onto cells at each submit;
	// it orders cells by recency without reading clocks under the lock.
	useSeq uint64
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

// DefaultCellBudget caps the shared default runner's memo. Generous
// enough that every cell of a full RunAll sweep (a few hundred) stays
// resident with room to spare, small enough that a process serving
// unbounded distinct jobs (cheetahd) cannot leak memory through the
// package-level entry points.
const DefaultCellBudget = 4096

// defaultRunner backs the package-level experiment functions when the
// caller does not pin a worker count: sharing one memoized runner lets
// different experiments (and different tests of this package) reuse each
// other's cells. It carries a cell budget because it lives as long as
// the process does.
var defaultRunner = sync.OnceValue(func() *Runner {
	r := NewRunner(0)
	r.SetCellBudget(DefaultCellBudget)
	return r
})

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

// SetCellBudget caps the number of memoized cells the runner retains;
// n <= 0 removes the cap. Over-budget inserts evict the finished
// least-recently-submitted cells. Evicting a cell only drops the memo:
// callers holding the *cell still read its result, and a later submit
// of the same key re-executes. With a budget set, CellsRun and Accesses
// count only the retained cells, so they undercount a long-lived
// process's lifetime totals (the obs counters keep the true totals).
func (r *Runner) SetCellBudget(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 0 {
		n = 0
	}
	r.budget = n
	r.evictLocked()
}

// evictLocked drops finished least-recently-used cells until the memo
// fits the budget. In-flight cells are never dropped (their done
// channel is still open), so a burst of distinct concurrent jobs can
// transiently exceed the budget rather than lose running work.
func (r *Runner) evictLocked() {
	for r.budget > 0 && len(r.cells) > r.budget {
		var victim *cell
		for _, c := range r.cells {
			select {
			case <-c.done:
			default:
				continue // still running
			}
			if victim == nil || c.lastUse < victim.lastUse {
				victim = c
			}
		}
		if victim == nil {
			return // everything over budget is in flight
		}
		delete(r.cells, victim.key)
	}
}

// CellsRun returns the number of distinct cells executed so far (shared
// cells count once) — the denominator for the dedup ratio in the bench
// trajectory. On a budgeted runner this is the retained count, not the
// lifetime count.
func (r *Runner) CellsRun() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cells)
}

// Accesses returns the total simulated memory accesses behind this
// runner's finished cells — executed locally or preloaded from worker
// processes and result caches (the per-thread counts ride exec.Result,
// so the sum is deterministic and survives the wire). Cells still in
// flight are skipped; call after the sweep completes for the full
// total.
func (r *Runner) Accesses() uint64 {
	r.mu.Lock()
	cells := make([]*cell, 0, len(r.cells))
	for _, c := range r.cells {
		cells = append(cells, c)
	}
	r.mu.Unlock()
	var n uint64
	for _, c := range cells {
		select {
		case <-c.done:
			n += c.out.res.Accesses()
		default:
		}
	}
	return n
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
	r.useSeq++
	c, ok := r.cells[k]
	if ok {
		c.lastUse = r.useSeq
		mCellsMemoized.Inc()
	} else {
		c = &cell{key: k, done: make(chan struct{}), lastUse: r.useSeq}
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
	// Trim on every submit, not just inserts: cells that were in flight
	// (and so unevictable) during an over-budget burst get collected by
	// the next submit after they finish.
	r.evictLocked()
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
		// The engine result rides along even though rule rows don't use
		// it: its per-thread access counts join the sweep's throughput
		// accounting like every other cell's.
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
