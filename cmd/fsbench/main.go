// Command fsbench regenerates the tables and figures of the paper's
// evaluation (§4).
//
// Usage:
//
//	fsbench -experiment fig1|fig4|fig5|fig7|table1|compare|ablation|all
//	        [-scale 1.0] [-threads 16] [-workers 0] [-app linear_regression]
//	        [-workers-procs 0] [-cache-dir DIR] [-cache-max-bytes N] [-cell-timeout 0]
//	fsbench -worker
//	fsbench ... [-metrics-addr 127.0.0.1:9137] [-span-log spans.jsonl]
//	        [-chrome-trace trace.json] [-progress 10s]
//
// -metrics-addr serves live Prometheus/JSON metrics and pprof while the
// sweep runs; -span-log / -chrome-trace record the sweep cell lifecycle
// as structured spans; -progress prints a periodic done/pending line
// for sharded sweeps. All are opt-in and off the report path: output is
// byte-identical with or without them.
//
// Each experiment prints the same rows or series the paper reports.
// Experiment cells run concurrently on a -workers pool (0 = GOMAXPROCS, 1 = serial);
// results are identical at any worker count. The repository's
// benchmark is perfbench (perfbench/README.md), not this command.
//
// Beyond the in-process pool, -experiment all shards across OS
// processes: -workers-procs N runs the sweep's cells as one job on the
// job queue that also schedules cheetahd's jobs, over a pool of N worker
// subprocesses (this binary re-executed with -worker), and -cache-dir
// keeps finished cells on disk so re-sweeps and crashed-sweep resumes
// skip completed work (-cache-max-bytes caps the directory, evicting
// least-recently-used entries from previous sweeps). The pool retries a
// cell whose worker dies, or sends no reply within -cell-timeout, on
// another worker, and replaces dead workers while they keep serving
// cells between deaths, so a multi-proc sweep keeps its parallelism
// through crashes. The merged sharded report is byte-identical to the
// serial run — CI cmps the two.
//
// Recorded and imported memory-access traces sweep like any workload:
// pass `trace:<path>` wherever an application name is accepted, e.g.
// `fsbench -experiment fig5 -app trace:run.trace`. Cells of trace
// workloads are identified by the trace file's content hash, so cached
// results never go stale when the file is rewritten. Trace cells stream
// indexed traces phase by phase under bounded memory and fully decode
// the rest; reports are byte-identical either way. A
// `trace:<path>@lo-hi` name replays only phases lo..hi of an indexed
// trace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all",
		"which experiment to run: fig1, fig4, fig5, fig7, table1, compare, ablation, all")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	threads := fs.Int("threads", 16, "worker threads per parallel phase")
	workers := fs.Int("workers", 0, "max concurrent experiment cells (0 = GOMAXPROCS, 1 = serial)")
	machineName := fs.String("machine", "",
		"machine-model preset every cell simulates (topology, line size, protocol); empty = opteron48")
	app := fs.String("app", "linear_regression", "application for fig5 (case study report)")
	worker := fs.Bool("worker", false,
		"run as a sweep worker serving cells on stdin/stdout")
	workersProcs := fs.Int("workers-procs", 0,
		"shard -experiment all across this many worker subprocesses (0 = in-process)")
	cacheDir := fs.String("cache-dir", "",
		"on-disk result cache for sharded sweeps; cached cells are never re-run")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0,
		"evict least-recently-used -cache-dir entries over this size (0 = unbounded; the running sweep's entries are never evicted)")
	cellTimeout := fs.Duration("cell-timeout", 0,
		"with a sharded sweep: retry a cell on another worker when its worker sends no reply within this duration (0 = wait forever)")
	metricsAddr := fs.String("metrics-addr", "",
		"serve live metrics (Prometheus at /metrics, JSON at /metrics.json) and pprof on this address (e.g. 127.0.0.1:9137, or :0)")
	spanLog := fs.String("span-log", "", "append structured span/event records (JSONL) to this file")
	chromeTrace := fs.String("chrome-trace", "", "write a Chrome trace-event file (load in chrome://tracing) to this path")
	progressEvery := fs.Duration("progress", 0,
		"with a sharded sweep: print a progress line (done/pending/retries, cache hit rate) at this interval (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A sweep is a batch job: relax the GC target so the simulator spends
	// its cycles simulating instead of collecting (worth a few percent of
	// end-to-end wall time). Peak memory stays modest at paper scale, and
	// every mode — sharded, worker, serial — benefits alike.
	debug.SetGCPercent(400)

	// Worker mode: serve cells until the pool closes the stream.
	// Nothing else may write to stdout — it is the wire.
	if *worker {
		if err := sweep.Serve(os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "fsbench: worker: %v\n", err)
			return 1
		}
		return 0
	}

	// Trace pseudo-workloads are validated up front — the full pipeline,
	// not just decoding: workload Build cannot return errors (it panics,
	// inside a harness worker), so a bad path, corrupt file or
	// unrestorable layout is diagnosed here instead. ValidateTraceName
	// rehearses the same load path (streamed or full) Build will take.
	if workload.IsTraceName(*app) {
		if err := workload.ValidateTraceName(*app); err != nil {
			fmt.Fprintf(stderr, "fsbench: %v\n", err)
			return 1
		}
	}

	if _, ok := machine.Preset(*machineName); !ok {
		fmt.Fprintf(stderr, "fsbench: unknown machine preset %q; available: %s\n",
			*machineName, strings.Join(machine.Names(), ", "))
		return 2
	}

	// Observability is opt-in and strictly off the report path: sweep
	// output is byte-identical with or without these flags (CI cmps it).
	obsCleanup, obsAddr, err := obs.Setup(*metricsAddr, *spanLog, *chromeTrace)
	if err != nil {
		fmt.Fprintf(stderr, "fsbench: %v\n", err)
		return 1
	}
	defer obsCleanup()
	if obsAddr != "" {
		fmt.Fprintf(stderr, "fsbench: serving metrics and pprof on http://%s\n", obsAddr)
	}

	cfg := harness.Config{Scale: *scale, Threads: *threads, Workers: *workers, Machine: *machineName}
	sharded := *workersProcs > 0
	if sharded && *experiment != "all" {
		fmt.Fprintf(stderr, "fsbench: -workers-procs shards the full sweep; use -experiment all\n")
		return 2
	}
	if *cacheDir != "" && !sharded {
		fmt.Fprintf(stderr, "fsbench: -cache-dir requires a sharded sweep (-workers-procs)\n")
		return 2
	}
	if *cacheMaxBytes != 0 && *cacheDir == "" {
		fmt.Fprintf(stderr, "fsbench: -cache-max-bytes requires -cache-dir\n")
		return 2
	}
	if *cacheMaxBytes < 0 {
		fmt.Fprintf(stderr, "fsbench: -cache-max-bytes must be >= 0\n")
		return 2
	}
	if *cellTimeout != 0 && !sharded {
		fmt.Fprintf(stderr, "fsbench: -cell-timeout requires a sharded sweep (-workers-procs)\n")
		return 2
	}
	if *progressEvery != 0 && !sharded {
		fmt.Fprintf(stderr, "fsbench: -progress requires a sharded sweep (-workers-procs)\n")
		return 2
	}

	// A sharded sweep runs its cells on subprocess workers: this binary
	// re-executed with -worker.
	var sc *sweep.Config
	if sharded {
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintf(stderr, "fsbench: resolving own binary for workers: %v\n", err)
			return 1
		}
		sc = &sweep.Config{Harness: cfg, Procs: *workersProcs, CellTimeout: *cellTimeout,
			Log: stderr, ProgressEvery: *progressEvery,
			Spawn: func(int) (io.ReadWriteCloser, error) {
				return sweep.SpawnWorkerProc(self, []string{"-worker"}, nil, stderr)
			}}
		if *cacheDir != "" {
			if sc.Cache, err = sweep.OpenCache(*cacheDir); err != nil {
				fmt.Fprintf(stderr, "fsbench: %v\n", err)
				return 1
			}
			sc.Cache.SetMaxBytes(*cacheMaxBytes)
		}
	}

	switch *experiment {
	case "all":
		var res *harness.Results
		if sc != nil {
			var stats sweep.Stats
			if res, stats, err = sweep.Run(*sc); err != nil {
				fmt.Fprintf(stderr, "fsbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "fsbench: sweep of %d cells: %d cached, %d executed on %d workers, %d retries, %d respawns\n",
				stats.Cells, stats.Cached, stats.Executed, stats.Workers, stats.Retries, stats.Respawns)
		} else {
			res = harness.RunAll(cfg)
		}
		fmt.Fprint(stdout, res.Format())
	case "fig1":
		fmt.Fprint(stdout, harness.FormatFigure1(harness.Figure1(cfg)))
	case "fig4":
		fmt.Fprint(stdout, harness.FormatFigure4(harness.Figure4(cfg)))
	case "fig5":
		_, text := harness.Figure5(*app, cfg)
		fmt.Fprintf(stdout, "Figure 5: Cheetah report for %s\n\n%s", *app, text)
	case "fig7":
		fmt.Fprint(stdout, harness.FormatFigure7(harness.Figure7(cfg)))
	case "table1":
		fmt.Fprint(stdout, harness.FormatTable1(harness.Table1(cfg)))
	case "compare":
		fmt.Fprint(stdout, harness.FormatCompare(harness.Compare(cfg)))
	case "ablation":
		fmt.Fprint(stdout, harness.FormatPeriodAblation(harness.PeriodAblation(cfg)))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, harness.FormatRuleAblation(harness.RuleAblation(cfg)))
	default:
		fmt.Fprintf(stderr, "fsbench: unknown experiment %q\n", *experiment)
		fs.Usage()
		return 2
	}
	return 0
}
