// Command cheetah runs a workload under the Cheetah profiler and prints
// its false sharing report, in the style of paper Figure 5.
//
// Usage:
//
//	cheetah [-threads 16] [-scale 1.0] [-period 64] [-machine opteron48] [-words] [-candidates] <workload>
//	cheetah -record trace.out [-record-sampled] [-record-binary] <workload>
//	cheetah -replay trace.out
//	cheetah -replay-stream trace.out
//	cheetah -index trace.out [-record indexed.trace]
//	cheetah -trace-info trace.out
//	cheetah -synth-trace 1000000 -record big.trace
//	cheetah -import-perf samples.txt [-record out.trace] [-record-binary] [-replay out.trace]
//	cheetah -import-ibs samples.csv [-record out.trace] [-record-binary] [-replay out.trace]
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
// -index rewrites any decodable trace in the indexed binary v3 framing
// (atomically, in place unless -record names the output): the same
// record stream plus a seekable index block. Indexed traces replay with
// bounded memory via -replay-stream, which loads one phase's records at
// a time and prints a report byte-identical to -replay's. -trace-info
// prints a trace's metadata without building its program (reading only
// the index and layout for indexed traces); -synth-trace writes a
// deterministic indexed trace of the requested access count to -record,
// for memory-bound regression gates.
//
// -import-perf converts `perf script` output of a `perf mem record`
// session, and -import-ibs an AMD IBS CSV dump, into a native trace
// written to the -record path (default: the input path + ".trace", in
// the binary framing with -record-binary). Passing -replay with the
// same path additionally profiles the imported trace immediately.
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
	sched := fs.String("sched", "",
		"engine thread scheduler: sorted (default), heap or calendar; reports are byte-identical either way")
	machineName := fs.String("machine", "",
		"machine-model preset to simulate (topology, line size, protocol); empty = opteron48. Unlike -sched this changes results")
	period := fs.Uint64("period", 0, "sampling period in instructions (0 = calibrated default)")
	words := fs.Bool("words", false, "print word-level access detail for each instance")
	candidates := fs.Bool("candidates", false, "also print non-significant candidates")
	fixed := fs.Bool("fixed", false, "run the padded (fixed) layout instead of the original")
	list := fs.Bool("list", false, "list available workloads and exit")
	record := fs.String("record", "", "write a memory-access trace of the profiled run to this file")
	recordSampled := fs.Bool("record-sampled", false, "record only PMU-sampled accesses (compact; replay is approximate)")
	recordBinary := fs.Bool("record-binary", false, "write the trace in the compact binary framing instead of text")
	replay := fs.String("replay", "", "replay a recorded trace instead of running a workload")
	replayStream := fs.String("replay-stream", "",
		"stream-replay an indexed trace with bounded memory (report is byte-identical to -replay)")
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

	if !exec.ValidScheduler(*sched) {
		fmt.Fprintf(stderr, "cheetah: unknown scheduler %q; available: %s\n",
			*sched, strings.Join(exec.SchedulerNames(), ", "))
		return 2
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

	rec := recordOptions{path: *record, sampled: *recordSampled, binary: *recordBinary}

	if *traceInfo != "" {
		return runTraceInfo(*traceInfo, stdout, stderr)
	}
	if *synthTrace != 0 {
		return runSynth(*synthTrace, *threads, rec.path, stderr)
	}
	if *indexPath != "" {
		return runIndex(*indexPath, rec.path, stderr)
	}
	if *replayStream != "" {
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "usage: cheetah -replay-stream <trace> takes no workload argument")
			return 2
		}
		return runReplayStream(*replayStream, cfg, rec, *sched, *machineName, *words, *candidates, stdout, stderr)
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
		if code := runImport(*importPerf, *importIBS, rec, stderr); code != 0 {
			return code
		}
		if *replay == "" {
			return 0
		}
		// Fall through to profile the freshly imported trace; the
		// recording options are spent (re-recording the replay onto the
		// file being replayed would truncate it mid-read).
		return runReplay(*replay, cfg, recordOptions{}, *sched, *machineName, *words, *candidates, stdout, stderr)
	}

	if *replay != "" {
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "usage: cheetah -replay <trace> takes no workload argument")
			return 2
		}
		return runReplay(*replay, cfg, rec, *sched, *machineName, *words, *candidates, stdout, stderr)
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
		// also converts between framings.
		return runReplay(strings.TrimPrefix(name, workload.TracePrefix), cfg, rec, *sched, *machineName, *words, *candidates, stdout, stderr)
	}
	w, ok := workload.ByName(name)
	if !ok {
		fmt.Fprintf(stderr, "cheetah: unknown workload %q; available: %s\n",
			name, strings.Join(workload.Names(), ", "))
		return 2
	}

	ccfg := cheetah.Config{Engine: exec.Config{Sched: *sched}}
	if m, ok := machine.Preset(*machineName); ok && *machineName != "" {
		ccfg.Machine = m
	}
	sys := cheetah.New(ccfg)
	prog := w.Build(sys, workload.Params{Threads: *threads, Scale: *scale, Fixed: *fixed})

	report, res, err := profileMaybeRecorded(sys, prog, cfg, rec, stderr)
	if err != nil {
		return 1
	}
	printReport(stdout, report, res, *words, *candidates)
	return 0
}

// runImport converts a real-PMU dump (exactly one of perfPath/ibsPath
// is set) into a native trace at rec.path, defaulting to the input path
// + ".trace". The import is staged through a temp file and renamed, so
// a failed import never leaves a truncated trace behind.
func runImport(perfPath, ibsPath string, rec recordOptions, stderr io.Writer) int {
	inPath, kind := perfPath, "perf script"
	importer := traceimport.ImportPerfScript
	if ibsPath != "" {
		inPath, kind = ibsPath, "IBS"
		importer = traceimport.ImportIBS
	}
	outPath := rec.path
	if outPath == "" {
		outPath = inPath + ".trace"
	}
	in, err := os.Open(inPath)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: importing %s: %v\n", inPath, err)
		return 1
	}
	defer in.Close()
	out, err := atomicfile.Create(outPath)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: importing %s: %v\n", inPath, err)
		return 1
	}
	defer out.Abort() // no-op after a successful Commit
	var enc trace.Encoder
	if rec.binary {
		enc = trace.NewBinaryEncoder(out)
	} else {
		enc = trace.NewTextEncoder(out)
	}
	stats, err := importer(in, enc, traceimport.Options{})
	if err == nil {
		err = out.Commit()
	}
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: importing %s: %v\n", inPath, err)
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

// recordOptions bundles the -record* flags.
type recordOptions struct {
	path    string
	sampled bool
	binary  bool
}

// profileMaybeRecorded profiles prog, recording a trace when requested.
// Errors are reported to stderr.
func profileMaybeRecorded(sys *cheetah.System, prog cheetah.Program, cfg pmu.Config, rec recordOptions, stderr io.Writer) (*cheetah.Report, cheetah.Result, error) {
	if rec.path == "" {
		report, res := sys.Profile(prog, cheetah.ProfileOptions{PMU: cfg})
		return report, res, nil
	}
	report, res, err := profileRecorded(sys, prog, cfg, rec.path, rec.sampled, rec.binary)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: recording %s: %v\n", rec.path, err)
		return nil, cheetah.Result{}, err
	}
	fmt.Fprintf(stderr, "cheetah: wrote trace to %s\n", rec.path)
	return report, res, nil
}

// profileRecorded profiles prog while streaming its accesses to a trace
// file. The recorder probes charge zero cycles, so the report matches an
// unrecorded profile of the same program.
func profileRecorded(sys *cheetah.System, prog cheetah.Program, cfg pmu.Config, path string, sampled, binary bool) (*cheetah.Report, cheetah.Result, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, cheetah.Result{}, err
	}
	var enc trace.Encoder
	if binary {
		enc = trace.NewBinaryEncoder(f)
	} else {
		enc = trace.NewTextEncoder(f)
	}
	var probes []exec.Probe
	traceErr := func() error { return nil }
	fp := sys.Model().Fingerprint()
	if sampled {
		sr := trace.NewSampledRecorder(cfg, enc, sys.Heap(), sys.Globals())
		sr.SetMachine(fp)
		probes = sr.Probes()
		traceErr = sr.Err
	} else {
		rec := trace.NewRecorder(enc, sys.Heap(), sys.Globals())
		rec.SetMachine(fp)
		probes = []exec.Probe{rec}
		traceErr = rec.Err
	}
	prof := sys.NewProfiler(cheetah.ProfileOptions{PMU: cfg})
	res := sys.RunWith(prog, append(prof.Probes(), probes...)...)
	if err := traceErr(); err != nil {
		f.Close()
		return nil, cheetah.Result{}, err
	}
	if err := f.Close(); err != nil {
		return nil, cheetah.Result{}, err
	}
	return prof.Report(), res, nil
}

// noteMachine extracts the `machine=<preset>` provenance note a recorded
// run stamped, if any; traces from canonical-default runs carry none.
func noteMachine(notes []string) string {
	for _, n := range notes {
		if name, ok := strings.CutPrefix(n, "machine="); ok {
			return name
		}
	}
	return ""
}

// replayConfig builds the system configuration for a replay: the
// recorded core count, the selected scheduler, and the machine model —
// the -machine flag when given, else the trace's own `machine=` note.
// An unknown noted preset (a trace from a newer build) fails rather
// than silently replaying on the wrong machine.
func replayConfig(cores int, sched, machineSel string, notes []string) (cheetah.Config, error) {
	ccfg := cheetah.Config{Cores: cores, Engine: exec.Config{Sched: sched}}
	name := machineSel
	if name == "" {
		name = noteMachine(notes)
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

// runReplay reconstructs a program from a trace file and profiles it on
// a machine with the recorded core count, optionally re-recording it
// (which converts between framings and full/sampled fidelity). The
// replayed program runs under the selected scheduler like any workload,
// and on the recorded machine model unless -machine overrides it.
func runReplay(path string, cfg pmu.Config, rec recordOptions, sched, machineSel string, words, candidates bool, stdout, stderr io.Writer) int {
	rp, err := trace.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: reading trace: %v\n", err)
		return 1
	}
	ccfg, err := replayConfig(rp.Cores, sched, machineSel, rp.Notes)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: %v\n", err)
		return 1
	}
	sys := cheetah.New(ccfg)
	if err := rp.Prepare(sys.Heap(), sys.Globals()); err != nil {
		fmt.Fprintf(stderr, "cheetah: preparing trace: %v\n", err)
		return 1
	}
	report, res, err := profileMaybeRecorded(sys, rp.Program(), cfg, rec, stderr)
	if err != nil {
		return 1
	}
	printReport(stdout, report, res, words, candidates)
	return 0
}

// runReplayStream profiles an indexed trace through the streaming
// replayer: the layout restores up front, but each phase's access
// records load from disk only when the engine reaches the phase, so
// peak memory is bounded by the largest phase. The report (and exit
// behaviour) match runReplay on the same trace byte for byte.
func runReplayStream(path string, cfg pmu.Config, rec recordOptions, sched, machineSel string, words, candidates bool, stdout, stderr io.Writer) int {
	sr, err := trace.OpenStream(path)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: opening indexed trace: %v\n", err)
		return 1
	}
	ccfg, err := replayConfig(sr.Cores, sched, machineSel, sr.Notes)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: %v\n", err)
		return 1
	}
	sys := cheetah.New(ccfg)
	if err := sr.Prepare(sys.Heap(), sys.Globals()); err != nil {
		fmt.Fprintf(stderr, "cheetah: preparing trace: %v\n", err)
		return 1
	}
	report, res, err := profileStreamed(sys, sr.Program(), cfg, rec, stderr)
	if err != nil {
		return 1
	}
	printReport(stdout, report, res, words, candidates)
	return 0
}

// profileStreamed is profileMaybeRecorded for a streamed replay, whose
// phase windows load from disk mid-run. A window that fails to load —
// the file changed after open, or its records fail their checksum —
// panics in a thread body, and the engine re-raises that here as an
// *exec.BodyPanic, which becomes one diagnostic line and an error.
func profileStreamed(sys *cheetah.System, prog cheetah.Program, cfg pmu.Config, rec recordOptions, stderr io.Writer) (report *cheetah.Report, res cheetah.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			bp, ok := p.(*exec.BodyPanic)
			if !ok {
				panic(p)
			}
			fmt.Fprintf(stderr, "cheetah: %v\n", bp)
			err = bp
		}
	}()
	return profileMaybeRecorded(sys, prog, cfg, rec, stderr)
}

// runIndex rewrites a trace (any decodable framing) as an indexed
// binary v3 file, staged through a temp file so a failed rewrite never
// clobbers the input. With no -record path the trace is replaced in
// place.
func runIndex(inPath, outPath string, stderr io.Writer) int {
	if outPath == "" {
		outPath = inPath
	}
	in, err := os.Open(inPath)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: indexing %s: %v\n", inPath, err)
		return 1
	}
	defer in.Close()
	out, err := atomicfile.Create(outPath)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: indexing %s: %v\n", inPath, err)
		return 1
	}
	defer out.Abort() // no-op after a successful Commit
	enc := trace.NewIndexedEncoder(out)
	d := trace.NewDecoder(in)
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = enc.Encode(ev)
		}
		if err != nil {
			fmt.Fprintf(stderr, "cheetah: indexing %s: %v\n", inPath, err)
			return 1
		}
	}
	err = enc.Close()
	if err == nil {
		err = out.Commit()
	}
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: indexing %s: %v\n", inPath, err)
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

// runSynth writes a deterministic synthetic indexed trace for
// memory-bound regression gates.
func runSynth(accesses uint64, threads int, outPath string, stderr io.Writer) int {
	if outPath == "" {
		fmt.Fprintln(stderr, "cheetah: -synth-trace requires -record <path>")
		return 2
	}
	out, err := atomicfile.Create(outPath)
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: writing %s: %v\n", outPath, err)
		return 1
	}
	defer out.Abort()
	enc := trace.NewIndexedEncoder(out)
	err = trace.WriteSynthetic(enc, trace.SynthConfig{Accesses: accesses, Threads: threads})
	if err == nil {
		err = enc.Close()
	}
	if err == nil {
		err = out.Commit()
	}
	if err != nil {
		fmt.Fprintf(stderr, "cheetah: writing %s: %v\n", outPath, err)
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
