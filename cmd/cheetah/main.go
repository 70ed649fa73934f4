// Command cheetah runs a workload under the Cheetah profiler and prints
// its false sharing report, in the style of paper Figure 5.
//
// Usage:
//
//	cheetah [-threads 16] [-scale 1.0] [-period 64] [-machine opteron48] [-words] [-candidates] <workload>
//	cheetah -record trace.out [-record-sampled] <workload>
//	cheetah -replay trace.out
//	cheetah -index trace.out [-record indexed.trace]
//	cheetah -trace-info trace.out
//	cheetah -synth-trace 1000000 -record big.trace
//	cheetah -import-perf samples.txt [-record out.trace] [-replay out.trace]
//	cheetah -import-ibs samples.csv [-record out.trace] [-replay out.trace]
//	cheetah ... [-metrics-addr 127.0.0.1:9137] [-span-log spans.jsonl] [-chrome-trace trace.json]
//	cheetah -list
//
// -metrics-addr serves live Prometheus/JSON metrics and pprof for the
// duration of the run; -span-log and -chrome-trace record structured
// spans (JSONL, and Chrome trace-event format for chrome://tracing).
// All three are opt-in and strictly off the report path: the printed
// report is byte-identical with or without them.
//
// Workloads are the built-in Phoenix/PARSEC analogs, e.g.:
//
//	cheetah linear_regression
//	cheetah -threads 8 -words streamcluster
//
// -record writes a memory-access trace of the profiled run; -replay
// reconstructs a program from a trace and profiles it on a machine with
// the recorded core count. Replaying a full (non-sampled) trace under
// the same flags prints a report byte-identical to the recorded run's.
// A trace also replays anywhere a workload name is accepted, as
// `trace:<path>`.
//
// Every trace cheetah writes is in the indexed binary v3 framing: the
// record stream plus a seekable index block with per-phase checksums.
// Each write is staged and renamed into place once complete, so a
// failed write leaves nothing behind and -record may name the trace
// being replayed. -replay opens a trace by the rule every sweep and
// gateway cell uses: an indexed trace streams one phase's records at a
// time, verifying each phase's checksum as it loads, so memory stays
// bounded by the largest phase; text, v1 and v2 traces load in full.
// Both print the same report. -index rewrites any decodable trace in
// the indexed framing (in place unless -record names the output);
// -trace-info prints a trace's metadata without building its program
// (reading only the index and layout for indexed traces); -synth-trace
// writes a deterministic trace of the requested access count to
// -record, for memory-bound regression gates.
//
// -import-perf converts `perf script` output of a `perf mem record`
// session, and -import-ibs an AMD IBS CSV dump, into a native trace
// written to the -record path (default: the input path + ".trace").
// Passing -replay with the same path additionally profiles the imported
// trace immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	cheetah "repro"
	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/trace"
	traceimport "repro/internal/trace/import"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cheetah", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threads := fs.Int("threads", 16, "worker threads per parallel phase")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	machineName := fs.String("machine", "",
		"machine-model preset to simulate (topology, line size, protocol); empty = opteron48")
	period := fs.Uint64("period", 0, "sampling period in instructions (0 = calibrated default)")
	words := fs.Bool("words", false, "print word-level access detail for each instance")
	candidates := fs.Bool("candidates", false, "also print non-significant candidates")
	fixed := fs.Bool("fixed", false, "run the padded (fixed) layout instead of the original")
	list := fs.Bool("list", false, "list available workloads and exit")
	record := fs.String("record", "", "write an indexed memory-access trace of the profiled run to this file")
	recordSampled := fs.Bool("record-sampled", false, "record only PMU-sampled accesses (compact; replay is approximate)")
	replay := fs.String("replay", "", "replay a recorded trace instead of running a workload")
	fs.StringVar(replay, "replay-stream", "",
		"same as -replay; goes once perfbench's trace_replay workload moves to -replay")
	indexPath := fs.String("index", "",
		"rewrite a trace in the indexed binary v3 framing, in place or to -record")
	traceInfo := fs.String("trace-info", "", "print a trace file's metadata and exit")
	synthTrace := fs.Uint64("synth-trace", 0,
		"write a synthetic indexed trace with this many accesses to -record and exit")
	importPerf := fs.String("import-perf", "",
		"convert `perf script` output of a perf mem record session into a native trace (written to -record)")
	importIBS := fs.String("import-ibs", "",
		"convert an AMD IBS CSV dump into a native trace (written to -record)")
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

	if *list {
		for _, w := range workload.All() {
			note := ""
			switch w.FS {
			case workload.SignificantFS:
				note = " [significant false sharing: " + w.FSSite + "]"
			case workload.MinorFS:
				note = " [minor false sharing: " + w.FSSite + "]"
			}
			fmt.Fprintf(stdout, "%-20s %s%s\n", w.Name, w.Suite, note)
		}
		fmt.Fprintf(stdout, "%-20s %s\n", "trace:<path>", "trace  [replays a recorded memory-access trace]")
		return 0
	}

	if _, ok := machine.Preset(*machineName); !ok {
		fmt.Fprintf(stderr, "cheetah: unknown machine preset %q; available: %s\n",
			*machineName, strings.Join(machine.Names(), ", "))
		return 2
	}

	// Observability is opt-in and strictly off the report path: the
	// profile output is byte-identical with or without these flags.
	obsCleanup, obsAddr, err := obs.Setup(*metricsAddr, *spanLog, *chromeTrace)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: %v\n", err)
		return 1
	}
	defer obsCleanup()
	if obsAddr != "" {
		fmt.Fprintf(stderr, "cheetah: serving metrics and pprof on http://%s\n", obsAddr)
	}

	var cfg pmu.Config
	if *period != 0 {
		cfg = pmu.Config{Period: *period, Jitter: *period / 4, HandlerCycles: 4, SetupCycles: 4700}
	} else {
		cfg = harness.DetectionPMU()
	}

	rec := recordOptions{path: *record, sampled: *recordSampled}

	if *traceInfo != "" {
		return runTraceInfo(*traceInfo, stdout, stderr)
	}
	if *synthTrace != 0 {
		return runSynth(*synthTrace, *threads, rec.path, stderr)
	}
	if *indexPath != "" {
		return runIndex(*indexPath, rec.path, stderr)
	}
	if *importPerf != "" || *importIBS != "" {
		if *importPerf != "" && *importIBS != "" {
			fmt.Fprintln(stderr, "cheetah: -import-perf and -import-ibs are mutually exclusive")
			return 2
		}
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "usage: cheetah -import-perf/-import-ibs <dump> takes no workload argument")
			return 2
		}
		if code := runImport(*importPerf, *importIBS, rec.path, stderr); code != 0 {
			return code
		}
		if *replay == "" {
			return 0
		}
		// Fall through to profile the freshly imported trace; -record
		// named the import's output, so the replay records nothing.
		return runReplay(*replay, cfg, recordOptions{}, *machineName, *words, *candidates, stdout, stderr)
	}

	if *replay != "" {
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "usage: cheetah -replay <trace> takes no workload argument")
			return 2
		}
		return runReplay(*replay, cfg, rec, *machineName, *words, *candidates, stdout, stderr)
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cheetah [flags] <workload>  (or cheetah -list)")
		fs.Usage()
		return 2
	}
	name := fs.Arg(0)
	if workload.IsTraceName(name) {
		// Route trace pseudo-workloads through the replay path: same
		// semantics as -replay (recorded core count, friendly errors).
		// -record still applies, re-recording the replayed run — which
		// also converts the trace to the indexed framing.
		return runReplay(strings.TrimPrefix(name, workload.TracePrefix), cfg, rec, *machineName, *words, *candidates, stdout, stderr)
	}
	w, ok := workload.ByName(name)
	if !ok {
		fmt.Fprintf(stderr, "cheetah: unknown workload %q; available: %s\n",
			name, strings.Join(workload.Names(), ", "))
		return 2
	}

	var ccfg cheetah.Config
	if m, ok := machine.Preset(*machineName); ok && *machineName != "" {
		ccfg.Machine = m
	}
	sys := cheetah.New(ccfg)
	prog := w.Build(sys, workload.Params{Threads: *threads, Scale: *scale, Fixed: *fixed})

	return runProfile(sys, prog, cfg, rec, *words, *candidates, stdout, stderr)
}

// runImport converts a real-PMU dump (exactly one of perfPath/ibsPath
// is set) into a native trace at outPath, defaulting to the input path
// + ".trace".
func runImport(perfPath, ibsPath, outPath string, stderr io.Writer) int {
	inPath, kind := perfPath, "perf script"
	importer := traceimport.ImportPerfScript
	if ibsPath != "" {
		inPath, kind = ibsPath, "IBS"
		importer = traceimport.ImportIBS
	}
	if outPath == "" {
		outPath = inPath + ".trace"
	}
	var stats traceimport.Stats
	err := writeTrace(outPath, "importing "+inPath, stderr, func(enc trace.Encoder) error {
		in, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer in.Close()
		stats, err = importer(in, enc, traceimport.Options{})
		return err
	})
	if err != nil {
		return 1
	}
	skipped := fmt.Sprintf("%d skipped", stats.Skipped)
	if stats.Skipped > 0 {
		skipped = fmt.Sprintf("%d skipped: %d parse, %d non-mem, %d kernel",
			stats.Skipped, stats.SkippedParse, stats.SkippedNonMem, stats.SkippedKernel)
	}
	fmt.Fprintf(stderr, "cheetah: imported %d %s samples (%s) as %d threads over %d phases to %s\n",
		stats.Samples, kind, skipped, stats.Threads, stats.Phases, outPath)
	return 0
}

// writeTrace is the one way cheetah writes a trace: fill encodes the
// events into the indexed binary v3 framing, staged in a temp file next
// to path that replaces path, mode 0644, only once the trace is
// complete — so a failed write leaves nothing behind, and a recording
// may name the trace its run streams from. A failure, including a
// stream the encoder cannot index, prints one line naming what was
// being done and is returned.
func writeTrace(path, doing string, stderr io.Writer, fill func(trace.Encoder) error) error {
	out, err := atomicfile.Create(path)
	if err == nil {
		defer out.Abort() // no-op after a successful Commit
		enc := trace.NewIndexedEncoder(out)
		err = fill(enc)
		if err == nil {
			err = enc.Close()
		}
		if err == nil {
			err = out.File().Chmod(0o644)
		}
		if err == nil {
			err = out.Commit()
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: %s: %v\n", doing, err)
	}
	return err
}

// recordOptions bundles the -record* flags.
type recordOptions struct {
	path    string
	sampled bool
}

// runProfile profiles prog, recording a trace of the run when rec names
// a path, and prints the report; it returns the exit code. The recorder
// probes charge zero cycles, so the report matches an unrecorded
// profile of the same program.
func runProfile(sys *cheetah.System, prog cheetah.Program, cfg pmu.Config, rec recordOptions, words, candidates bool, stdout, stderr io.Writer) int {
	var report *cheetah.Report
	var res cheetah.Result
	if rec.path == "" {
		report, res = sys.Profile(prog, cheetah.ProfileOptions{PMU: cfg})
	} else {
		err := writeTrace(rec.path, "recording "+rec.path, stderr, func(enc trace.Encoder) error {
			var probes []exec.Probe
			var traceErr func() error
			fp := sys.Model().Fingerprint()
			if rec.sampled {
				sr := trace.NewSampledRecorder(cfg, enc, sys.Heap(), sys.Globals())
				sr.SetMachine(fp)
				probes, traceErr = sr.Probes(), sr.Err
			} else {
				r := trace.NewRecorder(enc, sys.Heap(), sys.Globals())
				r.SetMachine(fp)
				probes, traceErr = []exec.Probe{r}, r.Err
			}
			prof := sys.NewProfiler(cheetah.ProfileOptions{PMU: cfg})
			res = sys.RunWith(prog, append(prof.Probes(), probes...)...)
			report = prof.Report()
			return traceErr()
		})
		if err != nil {
			return 1
		}
		fmt.Fprintf(stderr, "cheetah: wrote trace to %s\n", rec.path)
	}
	printReport(stdout, report, res, words, candidates)
	return 0
}

// replayConfig builds the system configuration for a replay: the
// recorded core count and the machine model — the -machine flag when
// given, else the trace's own `machine=` note.
// An unknown noted preset (a trace from a newer build) fails rather
// than silently replaying on the wrong machine.
func replayConfig(cores int, machineSel string, notes []string) (cheetah.Config, error) {
	ccfg := cheetah.Config{Cores: cores}
	name := machineSel
	if name == "" {
		name = trace.MachineNote(notes)
	}
	if name != "" {
		m, ok := machine.Preset(name)
		if !ok {
			return ccfg, fmt.Errorf("trace records unknown machine preset %q; available: %s",
				name, strings.Join(machine.Names(), ", "))
		}
		ccfg.Machine = m
	}
	return ccfg, nil
}

// runReplay reconstructs a program from a trace file, opened by
// workload.OpenTrace's rule, and profiles it on a machine with the
// recorded core count, optionally re-recording it (which converts to
// the indexed framing and between full and sampled fidelity). The
// replayed program runs on the recorded machine model unless -machine
// overrides it. A streamed phase that fails to load — its records fail
// their checksum, or the file changed mid-run — panics in a thread
// body, and the engine re-raises that as an *exec.BodyPanic, which
// becomes one diagnostic line and exit code 1.
func runReplay(path string, cfg pmu.Config, rec recordOptions, machineSel string, words, candidates bool, stdout, stderr io.Writer) (code int) {
	defer func() {
		if p := recover(); p != nil {
			bp, ok := p.(*exec.BodyPanic)
			if !ok {
				panic(p)
			}
			fmt.Fprintf(stderr, "cheetah: %v\n", bp)
			code = 1
		}
	}()
	t, err := workload.OpenTrace(path)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: reading trace: %v\n", err)
		return 1
	}
	ccfg, err := replayConfig(t.Cores, machineSel, t.Notes)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: %v\n", err)
		return 1
	}
	sys := cheetah.New(ccfg)
	if err := t.Prepare(sys); err != nil {
		fmt.Fprintf(stderr, "cheetah: preparing trace: %v\n", err)
		return 1
	}
	return runProfile(sys, t.Program(), cfg, rec, words, candidates, stdout, stderr)
}

// runIndex rewrites a trace (any decodable framing) in the indexed
// framing, in place unless outPath names the output.
func runIndex(inPath, outPath string, stderr io.Writer) int {
	if outPath == "" {
		outPath = inPath
	}
	err := writeTrace(outPath, "indexing "+inPath, stderr, func(enc trace.Encoder) error {
		in, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer in.Close()
		d := trace.NewDecoder(in)
		for {
			ev, err := d.Next()
			if err == io.EOF {
				return nil
			}
			if err == nil {
				err = enc.Encode(ev)
			}
			if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return 1
	}
	fmt.Fprintf(stderr, "cheetah: wrote indexed trace to %s\n", outPath)
	return 0
}

// runTraceInfo prints a trace's metadata. Indexed traces answer from
// the index and layout regions without reading their access records.
func runTraceInfo(path string, stdout, stderr io.Writer) int {
	m, err := trace.ReadMetaFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: inspecting %s: %v\n", path, err)
		return 1
	}
	fmt.Fprintf(stdout, "name:     %s\ncores:    %d\nframing:  %s\nindexed:  %v\n",
		m.Name, m.Cores, m.Framing, m.Indexed)
	fmt.Fprintf(stdout, "accesses: %d\nsymbols:  %d\nobjects:  %d\nphases:   %d (max index %d)\nthreads:  %d\n",
		m.Accesses, m.Symbols, m.Objects, m.Phases, m.MaxPhase, m.Threads)
	for _, note := range m.Notes {
		fmt.Fprintf(stdout, "note:     %s\n", note)
	}
	return 0
}

// runSynth writes a deterministic synthetic trace for memory-bound
// regression gates.
func runSynth(accesses uint64, threads int, outPath string, stderr io.Writer) int {
	if outPath == "" {
		fmt.Fprintln(stderr, "cheetah: -synth-trace requires -record <path>")
		return 2
	}
	err := writeTrace(outPath, "writing "+outPath, stderr, func(enc trace.Encoder) error {
		return trace.WriteSynthetic(enc, trace.SynthConfig{Accesses: accesses, Threads: threads})
	})
	if err != nil {
		return 1
	}
	fmt.Fprintf(stderr, "cheetah: wrote synthetic indexed trace to %s\n", outPath)
	return 0
}

// printReport renders the report sections shared by the profile, record
// and replay paths. The bytes come from harness.RenderDetectionReport,
// the same renderer the cheetahd gateway serves reports through, so the
// two surfaces cannot drift apart.
func printReport(stdout io.Writer, report *core.Report, res cheetah.Result, words, candidates bool) {
	fmt.Fprint(stdout, harness.RenderDetectionReport(report, res, words, candidates))
}
