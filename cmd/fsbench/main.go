// Command fsbench regenerates the tables and figures of the paper's
// evaluation (§4).
//
// Usage:
//
//	fsbench -experiment fig1|fig4|fig5|fig7|table1|compare|ablation|all
//	        [-scale 1.0] [-threads 16] [-workers 0] [-machine opteron48]
//	        [-app linear_regression]
//	fsbench ... [-metrics-addr 127.0.0.1:9137] [-span-log spans.jsonl]
//	        [-chrome-trace trace.json]
//
// -metrics-addr serves live Prometheus/JSON metrics and pprof while the
// sweep runs; -span-log / -chrome-trace record the sweep cell lifecycle
// as structured spans. All are opt-in and off the report path: output
// is byte-identical with or without them.
//
// Each experiment prints the same rows or series the paper reports.
// Experiment cells run concurrently in this process on a -workers pool
// (0 = GOMAXPROCS, 1 = serial); results are identical at any worker
// count. The repository's benchmark is perfbench (perfbench/README.md),
// not this command.
//
// Recorded and imported memory-access traces sweep like any workload:
// pass `trace:<path>` wherever an application name is accepted, e.g.
// `fsbench -experiment fig5 -app trace:run.trace`. Trace cells stream
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
	metricsAddr := fs.String("metrics-addr", "",
		"serve live metrics (Prometheus at /metrics, JSON at /metrics.json) and pprof on this address (e.g. 127.0.0.1:9137, or :0)")
	spanLog := fs.String("span-log", "", "append structured span/event records (JSONL) to this file")
	chromeTrace := fs.String("chrome-trace", "", "write a Chrome trace-event file (load in chrome://tracing) to this path")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A sweep is a batch job: relax the GC target so the simulator spends
	// its cycles simulating instead of collecting (worth a few percent of
	// end-to-end wall time). Peak memory stays modest at paper scale.
	debug.SetGCPercent(400)

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
	switch *experiment {
	case "all":
		fmt.Fprint(stdout, harness.RunAll(cfg).Format())
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
