package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
	"repro/internal/trace"
	traceimport "repro/internal/trace/import"
)

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-experiment", "fig1", "-scale", "0.2", "-threads", "4"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "reality/expectation") {
		t.Errorf("fig1 output missing header:\n%s", out.String())
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-experiment", "fig99"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr missing diagnosis:\n%s", errOut.String())
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-experiment") {
		t.Errorf("usage text missing flags:\n%s", errOut.String())
	}
}

// TestRunRejectsBadTraceApp: a missing or corrupt trace:<path> app must
// produce a one-line diagnostic and exit 1, not a worker-goroutine
// panic.
func TestRunRejectsBadTraceApp(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-experiment", "fig5", "-app", "trace:/no/such.trace"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("missing trace: exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "no such file") {
		t.Errorf("stderr missing diagnosis:\n%s", errOut.String())
	}

	bad := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(bad, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if code := run([]string{"-experiment", "fig5", "-app", "trace:" + bad}, &out, &errOut); code != 1 {
		t.Fatalf("corrupt trace: exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unrecognized framing") {
		t.Errorf("stderr missing diagnosis:\n%s", errOut.String())
	}

	// Decodes cleanly but cannot be restored: still a diagnostic, not a
	// worker panic.
	overlap := filepath.Join(t.TempDir(), "overlap.trace")
	content := "#cheetah-trace v1\n#program 4 dup\n" +
		"#object 0x40000000 16 16 0 1 1 -\n#object 0x40000000 16 16 0 2 1 -\n" +
		"#phase 0 p w\n1 w 0x40000000 4 1 0 0\n"
	if err := os.WriteFile(overlap, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if code := run([]string{"-experiment", "fig5", "-app", "trace:" + overlap}, &out, &errOut); code != 1 {
		t.Fatalf("unrestorable trace: exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "occupied") {
		t.Errorf("stderr missing restore diagnosis:\n%s", errOut.String())
	}
}

// TestShardedFlagValidation: sharding flags only make sense for the
// full sweep, and the cache only with sharding; both misuses must be
// diagnosed, not silently ignored.
func TestShardedFlagValidation(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-experiment", "fig1", "-workers-procs", "2"}, &out, &errOut); code != 2 {
		t.Errorf("-workers-procs with fig1: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-experiment all") {
		t.Errorf("stderr missing diagnosis:\n%s", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-experiment", "all", "-cache-dir", t.TempDir()}, &out, &errOut); code != 2 {
		t.Errorf("-cache-dir without sharding: exit %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"-experiment", "all", "-cell-timeout", "10s"}, &out, &errOut); code != 2 {
		t.Errorf("-cell-timeout without sharding: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-cell-timeout") {
		t.Errorf("stderr missing -cell-timeout diagnosis:\n%s", errOut.String())
	}
}

// TestWorkerModeOnClosedStdin: `fsbench -worker` under `go test` reads
// EOF from stdin immediately; it must emit its hello frame and exit 0 —
// the behavior a worker pool relies on when it closes a worker's pipe.
func TestWorkerModeOnClosedStdin(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-worker"}, &out, &errOut); code != 0 {
		t.Fatalf("worker exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), sweep.ProtoVersion) {
		t.Errorf("worker stdout missing hello frame:\n%q", out.String())
	}
}

// TestShardedSweepCLI: the full CLI path — a pool spawning real
// fsbench -worker subprocesses — must print byte-identical output to
// the serial CLI path. The packages under internal/ already test this
// exhaustively; this guards the flag wiring.
func TestShardedSweepCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a full sharded sweep")
	}
	if _, err := os.Stat(os.Args[0]); err != nil {
		t.Skip("test binary path unavailable")
	}
	// The worker subprocess must be fsbench itself, not the test
	// binary; build it once into a temp dir.
	exe := filepath.Join(t.TempDir(), "fsbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fsbench: %v\n%s", err, out)
	}
	args := []string{"-experiment", "all", "-scale", "0.04", "-threads", "4"}
	serial, err := exec.Command(exe, append(args, "-workers", "1")...).Output()
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	sharded, err := exec.Command(exe, append(args, "-workers-procs", "2")...).Output()
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if string(serial) != string(sharded) {
		t.Errorf("sharded CLI output diverges from serial:\nserial:\n%s\nsharded:\n%s", serial, sharded)
	}
}

// TestCacheMaxBytesFlagValidation: the eviction cap requires a cache
// directory and a non-negative value.
func TestCacheMaxBytesFlagValidation(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-experiment", "all", "-workers-procs", "2", "-cache-max-bytes", "1024"}, &out, &errOut); code != 2 {
		t.Errorf("-cache-max-bytes without -cache-dir: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-cache-dir") {
		t.Errorf("stderr missing diagnosis:\n%s", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-experiment", "all", "-workers-procs", "2",
		"-cache-dir", t.TempDir(), "-cache-max-bytes", "-5"}, &out, &errOut); code != 2 {
		t.Errorf("negative -cache-max-bytes: exit %d, want 2", code)
	}
}

// TestImportedTraceSmoke is fsbench's imported-trace smoke workload: a
// real perf script fixture imports to a native trace, sweeps through
// the fig5 case study as a `trace:` pseudo-workload, and prints
// byte-identical output across repeated runs.
func TestImportedTraceSmoke(t *testing.T) {
	src, err := os.Open("../../internal/trace/import/testdata/perf-mem.script")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	path := filepath.Join(t.TempDir(), "imported.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traceimport.ImportPerfScript(src, trace.NewBinaryEncoder(f), traceimport.Options{}); err != nil {
		t.Fatalf("import: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	args := []string{"-experiment", "fig5", "-app", "trace:" + path}
	var first, second, errOut strings.Builder
	if code := run(args, &first, &errOut); code != 0 {
		t.Fatalf("fig5 on imported trace: exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(first.String(), "fs_app") {
		t.Errorf("fig5 report does not name the imported program:\n%s", first.String())
	}
	if code := run(args, &second, &errOut); code != 0 {
		t.Fatalf("second run: exit %d", code)
	}
	if first.String() != second.String() {
		t.Error("imported-trace fig5 output is not reproducible")
	}
}

// TestRunMetricsFlagsOffReportPath: sweep output must be byte-identical
// with the observability surface fully enabled — the CLI edge of the
// "instrumentation off the report path" guarantee.
func TestRunMetricsFlagsOffReportPath(t *testing.T) {
	// -workers 2 pins a private runner: the shared default runner
	// memoizes cells forever, and a memoized hit executes nothing — so
	// the instrumented run would have no cell spans to log.
	var plain, plainErr strings.Builder
	if code := run([]string{"-experiment", "fig1", "-scale", "0.2", "-threads", "4", "-workers", "2"}, &plain, &plainErr); code != 0 {
		t.Fatalf("plain run exit code %d, stderr:\n%s", code, plainErr.String())
	}
	dir := t.TempDir()
	var obs, obsErr strings.Builder
	args := []string{
		"-metrics-addr", "127.0.0.1:0",
		"-span-log", filepath.Join(dir, "spans.jsonl"),
		"-chrome-trace", filepath.Join(dir, "trace.json"),
		"-experiment", "fig1", "-scale", "0.2", "-threads", "4", "-workers", "2",
	}
	if code := run(args, &obs, &obsErr); code != 0 {
		t.Fatalf("instrumented run exit code %d, stderr:\n%s", code, obsErr.String())
	}
	if plain.String() != obs.String() {
		t.Error("fig1 output changed under -metrics-addr/-span-log/-chrome-trace")
	}
	spans, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(spans), `"cat":"harness"`) || !strings.Contains(string(spans), `"workload":"figure1"`) {
		t.Errorf("span log missing harness cell spans:\n%.300s", spans)
	}
}

// TestRunProgressFlagRequiresSharding mirrors the other sharded-only
// flags: -progress without a sharded sweep is a usage error.
func TestRunProgressFlagRequiresSharding(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-experiment", "all", "-progress", "5s"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-progress requires a sharded sweep") {
		t.Errorf("stderr missing diagnostic:\n%s", errOut.String())
	}
}
