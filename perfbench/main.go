// Command perfbench is the repository's benchmark. It measures the
// reproduction end to end on three workloads and, in a separate traced
// run, layer by layer. See README.md in this directory for the
// layer → metric → workload map.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload trace_replay --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh -steady 5 --workload dense_detect --seconds 10
//	bash perfbench/run.sh -compare old.json new.json
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics. The run's stamp, output
// digest and full result are written to .bench_build/results/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// benchDir is the benchmark's own directory, relative to the root.
const benchDir = "perfbench"

// maxProcs caps every thread, worker and connection count the benchmark
// uses, whatever the machine offers.
const maxProcs = 2

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's summary line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run leaves in .bench_build/results for later
// comparison: the summary plus the stamp it was taken under.
type record struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

// runCtx is what every workload gets.
type runCtx struct {
	root    string // checkout root
	bin     string // built program binaries
	work    string // this run's scratch directory, removed at exit
	seed    uint64
	seconds float64
	tr      *tracer // nil in timed runs
	log     io.Writer
}

// outcome is what a workload returns.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	digest            string
	threads           int
	inputs            string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and logs why.
func (o *outcome) fail(log io.Writer, format string, args ...any) {
	o.failed++
	fmt.Fprintf(log, "perfbench: FAILED: "+format+"\n", args...)
}

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	name string
	run  func(rc *runCtx, o *outcome) error
}

// gogc is the GC target of every workload: Go's default, which the
// cheetah and cheetahd binaries run under.
const gogc = 100

var workloads = []workloadSpec{
	{name: "trace_replay", run: runTraceReplay},
	{name: "dense_detect", run: runDenseDetect},
	{name: "gateway", run: runGateway},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository checkout root")
	name := fs.String("workload", "", "workload: trace_replay, dense_detect or gateway")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "seconds of measured work per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	steady := fs.Int("steady", 0, "repeat the workload this many times (seeds 1..N) and print the spread of every end-to-end metric")
	compare := fs.Bool("compare", false, "compare two result files given as arguments; refuse if their stamps differ")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: perfbench -compare <old.json> <new.json>")
			return 2
		}
		if err := compareRecords(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	spec, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *steady > 0 {
		if err := runSteady(absRoot, spec.name, *steady, *seconds, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	// The program's own settings for this work, never the caller's.
	runtime.GOMAXPROCS(maxProcs)
	debug.SetGCPercent(gogc)

	build := filepath.Join(absRoot, ".bench_build")
	rc := &runCtx{
		root:    absRoot,
		bin:     filepath.Join(build, "bin"),
		seed:    *seed,
		seconds: float64(*seconds),
		log:     stderr,
	}
	if *traceFlag == 1 {
		rc.tr = newTracer()
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rc.work, err = os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(rc.work)

	o := &outcome{}
	if err := spec.run(rc, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	if o.attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operations\n", spec.name)
		return 1
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	}
	st := stamp{
		Commit:     sourceCommit(absRoot),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		Machine:    "opteron48",
		Sched:      "sorted",
		Threads:    o.threads,
		Inputs:     o.inputs,
		Workload:   spec.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Digest:     o.digest,
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d digest %s\n", spec.name, *seed, o.digest)
	if err := writeRecord(build, record{Stamp: st, Result: res}, *traceFlag); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rc.tr != nil {
		path := filepath.Join(build, "results", fmt.Sprintf("%s-seed%d-spans.jsonl", spec.name, *seed))
		if err := rc.tr.writeJSONL(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeRecord(build string, rec record, traced int) error {
	dir := filepath.Join(build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Stamp.Workload, rec.Stamp.Seed, traced))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var rec record
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s: %v", path, err)
	}
	return rec, nil
}

// compareRecords prints each metric of two result files side by side,
// after checking that they were taken under the same conditions.
func compareRecords(oldPath, newPath string, w io.Writer) error {
	a, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if err := compareStamps(a.Stamp, b.Stamp); err != nil {
		return err
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %14s %14s %8s\n", "metric", "old", "new", "change")
	for _, n := range names {
		ov, nv := a.Result.Metrics[n].Value, b.Result.Metrics[n].Value
		change := "n/a"
		if ov != 0 {
			change = fmt.Sprintf("%+.1f%%", (nv/ov-1)*100)
		}
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %8s\n", n, ov, nv, change)
	}
	return nil
}

// runSteady reruns this binary n times on one workload with seeds 1..n
// and prints, for every end-to-end metric, the median, the quartiles and
// the spread (IQR ÷ median).
func runSteady(root, name string, n, seconds int, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for seed := 1; seed <= n; seed++ {
		cmd := exec.Command(self, "-root", root, "-workload", name,
			"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
		cmd.Stderr = io.Discard
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s seed %d: %v", name, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s seed %d: %v", name, seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("%s seed %d: run was not correct", name, seed)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(stderr, "perfbench: %s seed %d done\n", name, seed)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s over %d seeds\n%-18s %12s %12s %12s %8s\n", name, n, "metric", "q1", "median", "q3", "iqr/med")
	for _, k := range names {
		q1, _, q3 := quartiles(values[k])
		med := median(values[k])
		fmt.Fprintf(stdout, "%-18s %12.6g %12.6g %12.6g %7.2f%%  %s\n", k, q1, med, q3, (q3-q1)/med*100, units[k])
	}
	return nil
}

// childEnv is the environment for program subprocesses: the caller's,
// with the Go runtime settings pinned rather than inherited.
func childEnv(gogc int) []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GOMAXPROCS=") || strings.HasPrefix(kv, "GOGC=") || strings.HasPrefix(kv, "GODEBUG=") {
			continue
		}
		env = append(env, kv)
	}
	return append(env, fmt.Sprintf("GOMAXPROCS=%d", maxProcs), fmt.Sprintf("GOGC=%d", gogc))
}

// runCheetah runs the cheetah CLI with args under childEnv and checks
// that it prints exactly want. It returns the run's wall time and the
// child's peak resident set in MiB.
func runCheetah(rc *runCtx, want string, args ...string) (secs, rssMB float64, err error) {
	cmd := exec.Command(filepath.Join(rc.bin, "cheetah"), args...)
	cmd.Env = childEnv(gogc)
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = rc.log
	if secs, err = timed(cmd.Run); err != nil {
		return 0, 0, err
	}
	if out.String() != want {
		return 0, 0, errors.New("cheetah printed a different report than expected")
	}
	return secs, maxRSSMB(cmd.ProcessState), nil
}

// maxRSSMB returns a finished child's peak resident set in MiB.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// timed runs fn and returns its duration in seconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
