package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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
