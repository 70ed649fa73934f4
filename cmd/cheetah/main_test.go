package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"linear_regression", "streamcluster", "figure1", "trace:<path>"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunProfilesWorkload(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-threads", "4", "-scale", "0.2", "linear_regression"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"runtime", "phases"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"no_such_workload"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown workload") {
		t.Errorf("stderr missing diagnosis:\n%s", errOut.String())
	}
}

func TestRunRejectsMissingArgument(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	for _, want := range []string{"-threads", "-record", "-replay"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("usage text missing %q:\n%s", want, errOut.String())
		}
	}
}

// TestRunRecordReplayRoundTrip drives the full CLI surface: -record
// writes a trace while printing the report, -replay (and the
// trace:<path> pseudo-workload spelling) reproduce that report byte for
// byte.
func TestRunRecordReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig1.trace")
	var recOut, recErr strings.Builder
	code := run([]string{"-record", path, "-threads", "4", "-scale", "0.05", "figure1"}, &recOut, &recErr)
	if code != 0 {
		t.Fatalf("record exit code %d, stderr:\n%s", code, recErr.String())
	}
	if !strings.Contains(recErr.String(), "wrote trace") {
		t.Errorf("stderr missing trace confirmation:\n%s", recErr.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}

	var repOut, repErr strings.Builder
	if code := run([]string{"-replay", path}, &repOut, &repErr); code != 0 {
		t.Fatalf("replay exit code %d, stderr:\n%s", code, repErr.String())
	}
	if repOut.String() != recOut.String() {
		t.Errorf("-replay output differs from recorded run\n--- recorded ---\n%s\n--- replayed ---\n%s",
			recOut.String(), repOut.String())
	}

	var wlOut, wlErr strings.Builder
	if code := run([]string{"trace:" + path}, &wlOut, &wlErr); code != 0 {
		t.Fatalf("trace:<path> exit code %d, stderr:\n%s", code, wlErr.String())
	}
	if wlOut.String() != recOut.String() {
		t.Error("trace:<path> pseudo-workload output differs from recorded run")
	}
}

// TestRunRecordSampledBinary exercises the sampled recording mode and
// its replay.
func TestRunRecordSampledBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig1.bin.trace")
	var out, errOut strings.Builder
	code := run([]string{"-record", path, "-record-sampled",
		"-threads", "4", "-scale", "0.05", "figure1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("record exit code %d, stderr:\n%s", code, errOut.String())
	}
	var repOut, repErr strings.Builder
	if code := run([]string{"-replay", path}, &repOut, &repErr); code != 0 {
		t.Fatalf("replay exit code %d, stderr:\n%s", code, repErr.String())
	}
	if !strings.Contains(repOut.String(), "runtime") {
		t.Errorf("sampled replay missing runtime line:\n%s", repOut.String())
	}
}

// TestRunReRecordConvertsFraming: -record combined with a trace
// workload re-records the replayed run — here converting the checked-in
// text trace to the indexed binary framing — and all three print the
// same report.
func TestRunReRecordConvertsFraming(t *testing.T) {
	text := sampleTrace
	var out1, err1 strings.Builder
	if code := run([]string{"-replay", text}, &out1, &err1); code != 0 {
		t.Fatalf("replay exit code %d, stderr:\n%s", code, err1.String())
	}
	bin := filepath.Join(t.TempDir(), "a.bin.trace")
	var out2, err2 strings.Builder
	if code := run([]string{"-record", bin, "trace:" + text}, &out2, &err2); code != 0 {
		t.Fatalf("re-record exit code %d, stderr:\n%s", code, err2.String())
	}
	if fi, err := os.Stat(bin); err != nil || fi.Size() == 0 {
		t.Fatalf("converted trace not written: %v", err)
	}
	var out3, err3 strings.Builder
	if code := run([]string{"-replay", bin}, &out3, &err3); code != 0 {
		t.Fatalf("replay of converted trace: exit code %d, stderr:\n%s", code, err3.String())
	}
	if out1.String() != out2.String() || out2.String() != out3.String() {
		t.Error("record, re-record and converted-replay reports differ")
	}
}

// TestRunMachineNoteRoundTrip pins the recorded-machine contract: a
// trace recorded under a non-default preset carries it in its metadata,
// a bare -replay simulates that recorded machine (byte-identical to the
// recorded run and to an explicit -machine spelling), and -machine
// overrides the note. 32 threads so the hot data spans multiple lines
// under both 64- and 128-byte geometry — the override visibly changes
// the report.
func TestRunMachineNoteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l128.trace")
	var recOut, recErr strings.Builder
	code := run([]string{"-machine", "line128", "-record", path,
		"-threads", "32", "-scale", "0.05", "figure1"}, &recOut, &recErr)
	if code != 0 {
		t.Fatalf("record exit code %d, stderr:\n%s", code, recErr.String())
	}

	var noted, explicit, overridden strings.Builder
	var errOut strings.Builder
	if code := run([]string{"-replay", path}, &noted, &errOut); code != 0 {
		t.Fatalf("bare replay exit code %d, stderr:\n%s", code, errOut.String())
	}
	if noted.String() != recOut.String() {
		t.Errorf("bare replay did not honor the recorded machine note\n--- recorded ---\n%s\n--- replayed ---\n%s",
			recOut.String(), noted.String())
	}
	if code := run([]string{"-machine", "line128", "-replay", path}, &explicit, &errOut); code != 0 {
		t.Fatalf("explicit replay exit code %d, stderr:\n%s", code, errOut.String())
	}
	if explicit.String() != noted.String() {
		t.Error("explicit -machine line128 replay differs from the note-driven replay")
	}
	if code := run([]string{"-machine", "opteron48", "-replay", path}, &overridden, &errOut); code != 0 {
		t.Fatalf("override replay exit code %d, stderr:\n%s", code, errOut.String())
	}
	if overridden.String() == noted.String() {
		t.Error("-machine opteron48 override printed the line128 report; the flag did not override the note")
	}
}

func TestRunRejectsUnknownMachinePreset(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-machine", "cray1", "figure1"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "opteron48") {
		t.Errorf("error does not list available presets:\n%s", errOut.String())
	}
}

func TestRunReplayRejectsMissingFile(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-replay", "/no/such/file.trace"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

func TestRunReplayExcludesWorkloadArgument(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-replay", "x.trace", "figure1"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// perfFixture is the checked-in perf script dump the import tests share
// with the importer package.
const perfFixture = "../../internal/trace/import/testdata/perf-mem.script"

// sampleTrace is the checked-in hand-written text trace of the
// tracereplay example; testdata/sample-replay.golden is its report.
const sampleTrace = "../../examples/tracereplay/sample.trace"

// TestRunImportPerf: -import-perf converts a perf script dump into a
// native trace, -replay profiles it, and the imported trace replays
// byte-identically across invocations (the acceptance bar for real-PMU
// imports).
func TestRunImportPerf(t *testing.T) {
	path := filepath.Join(t.TempDir(), "imported.trace")
	var out, errOut strings.Builder
	code := run([]string{"-import-perf", perfFixture, "-record", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("import exit code %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "imported 114 perf script samples") {
		t.Errorf("stderr missing import summary:\n%s", errOut.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("imported trace not written: %v", err)
	}

	var rep1, rep2, errs strings.Builder
	if code := run([]string{"-replay", path}, &rep1, &errs); code != 0 {
		t.Fatalf("replay exit code %d, stderr:\n%s", code, errs.String())
	}
	if !strings.Contains(rep1.String(), "fs_app") {
		t.Errorf("report does not name the imported program:\n%s", rep1.String())
	}
	if code := run([]string{"-replay", path}, &rep2, &errs); code != 0 {
		t.Fatalf("second replay exit code %d", code)
	}
	if rep1.String() != rep2.String() {
		t.Error("imported trace replays non-deterministically")
	}
}

// TestRunImportThenReplayInOneInvocation: -import-perf plus -replay on
// the output path converts and immediately profiles.
func TestRunImportThenReplayInOneInvocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "imported.trace")
	var out, errOut strings.Builder
	code := run([]string{"-import-perf", perfFixture, "-record", path, "-replay", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"runtime", "phases"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("combined import+replay output missing %q:\n%s", want, out.String())
		}
	}

	// Separate invocations must print the same report bytes.
	var rep strings.Builder
	if code := run([]string{"-replay", path}, &rep, &errOut); code != 0 {
		t.Fatalf("replay exit code %d", code)
	}
	if rep.String() != out.String() {
		t.Error("combined import+replay differs from separate replay")
	}
}

// TestRunImportIBS: the IBS CSV importer through the CLI, with the
// default output path derived from the input.
func TestRunImportIBS(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile("../../internal/trace/import/testdata/ibs-samples.csv")
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "samples.csv")
	if err := os.WriteFile(in, src, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-import-ibs", in}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	if fi, err := os.Stat(in + ".trace"); err != nil || fi.Size() == 0 {
		t.Fatalf("default-path trace not written: %v", err)
	}
	var rep strings.Builder
	if code := run([]string{"-replay", in + ".trace"}, &rep, &errOut); code != 0 {
		t.Fatalf("replay exit code %d, stderr:\n%s", code, errOut.String())
	}
}

// TestRunImportFlagValidation: the import flags reject contradictory
// usage and bad inputs with exit code 2/1 and a diagnosis.
func TestRunImportFlagValidation(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-import-perf", "a", "-import-ibs", "b"}, &out, &errOut); code != 2 {
		t.Errorf("both import flags: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "mutually exclusive") {
		t.Errorf("stderr missing exclusivity diagnosis:\n%s", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-import-perf", perfFixture, "figure1"}, &out, &errOut); code != 2 {
		t.Errorf("import with workload arg: exit %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"-import-perf", filepath.Join(t.TempDir(), "nope")}, &out, &errOut); code != 1 {
		t.Errorf("missing input: exit %d, want 1", code)
	}
	errOut.Reset()
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(t.TempDir(), "out.trace")
	if code := run([]string{"-import-perf", empty, "-record", out2}, &out, &errOut); code != 1 {
		t.Errorf("empty input: exit %d, want 1", code)
	}
	if _, err := os.Stat(out2); !os.IsNotExist(err) {
		t.Error("failed import left a trace file behind")
	}
}

// TestRunStreamReplayGoldens pins the streamed replay of the two
// checked-in fixtures — the hand-written sample trace and the imported
// perf mem trace — against golden reports: -index rewrites each into the
// seekable v3 framing, and -replay of it (which streams) must print bytes
// identical to the golden and to -replay of the unindexed fixture (which
// loads in full). -replay-stream, the alias perfbench runs, must print
// the same bytes. A diff here means the out-of-core path (or the engine
// schedule it relies on) changed observable behavior.
func TestRunStreamReplayGoldens(t *testing.T) {
	cases := []struct {
		name, fixture, golden string
	}{
		{"sample", sampleTrace, "testdata/sample-replay.golden"},
		{"perf-mem", "../../internal/trace/import/testdata/perf-mem.golden.trace", "testdata/perf-mem-replay.golden"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			indexed := filepath.Join(t.TempDir(), tc.name+"-v3.trace")
			var out, errOut strings.Builder
			if code := run([]string{"-index", tc.fixture, "-record", indexed}, &out, &errOut); code != 0 {
				t.Fatalf("-index exit %d, stderr:\n%s", code, errOut.String())
			}
			var full, stream, alias, errs strings.Builder
			if code := run([]string{"-replay", tc.fixture}, &full, &errs); code != 0 {
				t.Fatalf("-replay of the fixture exit %d, stderr:\n%s", code, errs.String())
			}
			if code := run([]string{"-replay", indexed}, &stream, &errs); code != 0 {
				t.Fatalf("-replay of the indexed copy exit %d, stderr:\n%s", code, errs.String())
			}
			if stream.String() != full.String() {
				t.Errorf("streamed replay differs from full replay\n--- full ---\n%s\n--- stream ---\n%s",
					full.String(), stream.String())
			}
			if code := run([]string{"-replay-stream", indexed}, &alias, &errs); code != 0 {
				t.Fatalf("-replay-stream exit %d, stderr:\n%s", code, errs.String())
			}
			if alias.String() != stream.String() {
				t.Error("-replay-stream differs from -replay of the same file")
			}
			golden, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if stream.String() != string(golden) {
				t.Errorf("streamed replay differs from golden %s\n--- golden ---\n%s\n--- stream ---\n%s",
					tc.golden, golden, stream.String())
			}
		})
	}
}

// windowLoads reads the process-wide count of streamed phase loads.
func windowLoads() uint64 {
	return obs.Default().CounterValue("cheetah_trace_window_loads_total")
}

// TestRunReplayStreamsIndexedTraces: -replay and trace:<path> stream an
// indexed trace phase by phase — the window-load counter rises — while
// -replay of a text trace loads it in full, leaves the counter alone and
// still prints its golden.
func TestRunReplayStreamsIndexedTraces(t *testing.T) {
	indexed := filepath.Join(t.TempDir(), "sample-v3.trace")
	var out, errOut strings.Builder
	if code := run([]string{"-index", sampleTrace, "-record", indexed}, &out, &errOut); code != 0 {
		t.Fatalf("-index exit %d, stderr:\n%s", code, errOut.String())
	}
	for _, args := range [][]string{{"-replay", indexed}, {"trace:" + indexed}} {
		before := windowLoads()
		var rep strings.Builder
		if code := run(args, &rep, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errOut.String())
		}
		if windowLoads() == before {
			t.Errorf("%v: no phase window loaded; the indexed trace was not streamed", args)
		}
	}

	golden, err := os.ReadFile("testdata/sample-replay.golden")
	if err != nil {
		t.Fatal(err)
	}
	before := windowLoads()
	var rep strings.Builder
	if code := run([]string{"-replay", sampleTrace}, &rep, &errOut); code != 0 {
		t.Fatalf("-replay of the text trace: exit %d, stderr:\n%s", code, errOut.String())
	}
	if windowLoads() != before {
		t.Error("-replay of a text trace loaded phase windows; it must load in full")
	}
	if rep.String() != string(golden) {
		t.Errorf("-replay of the text trace differs from its golden\n--- golden ---\n%s\n--- got ---\n%s", golden, rep.String())
	}
}

// TestRunReplayRejectsCorruptPayload: an indexed trace whose index is
// intact but one of whose phase segments has a flipped byte fails every
// replay spelling with exit 1 and one line naming the checksum, not a
// wrong report or a goroutine dump, and a recording of the failed replay
// leaves no file behind.
func TestRunReplayRejectsCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.trace")
	var out, errOut strings.Builder
	if code := run([]string{"-synth-trace", "20000", "-threads", "4", "-record", path}, &out, &errOut); code != 0 {
		t.Fatalf("-synth-trace exit %d, stderr:\n%s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rerecorded := filepath.Join(dir, "out.trace")
	for _, args := range [][]string{
		{"-replay", path},
		{"trace:" + path},
		{"-record", rerecorded, "-replay", path},
	} {
		var rep, errs strings.Builder
		if code := run(args, &rep, &errs); code != 1 {
			t.Errorf("%v: exit %d, want 1; stdout:\n%s", args, code, rep.String())
		}
		lines := strings.Split(strings.TrimSpace(errs.String()), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "cheetah: ") || !strings.Contains(lines[0], "checksum") {
			t.Errorf("%v: stderr is not one line naming the checksum:\n%s", args, errs.String())
		}
		if rep.Len() != 0 {
			t.Errorf("%v: printed a report for a corrupt trace:\n%s", args, rep.String())
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("the failed recording left files behind: %v %v", entries, err)
	}
}

// TestRunRecordOntoReplayedTrace: -record naming the indexed trace that
// -replay streams from succeeds — the recording is staged and replaces
// the trace only after the run — and the rewritten trace replays to the
// same bytes.
func TestRunRecordOntoReplayedTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig1.trace")
	var recOut, errOut strings.Builder
	if code := run([]string{"-record", path, "-threads", "4", "-scale", "0.05", "figure1"}, &recOut, &errOut); code != 0 {
		t.Fatalf("record exit %d, stderr:\n%s", code, errOut.String())
	}
	for _, args := range [][]string{{"-record", path, "-replay", path}, {"-record", path, "trace:" + path}} {
		var rerec, rep strings.Builder
		if code := run(args, &rerec, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errOut.String())
		}
		if code := run([]string{"-replay", path}, &rep, &errOut); code != 0 {
			t.Fatalf("replay after %v: exit %d, stderr:\n%s", args, code, errOut.String())
		}
		if rerec.String() != recOut.String() || rep.String() != recOut.String() {
			t.Errorf("%v: re-recorded or replayed report differs from the recorded run", args)
		}
	}
}

// TestRunTraceWritersLeaveIndexed0644Files: every CLI path that writes a
// trace — -record of a live run, a sampled run and a replay, -import-*,
// -index and -synth-trace — leaves an indexed trace with mode 0644,
// whatever mode the staging temp file had.
func TestRunTraceWritersLeaveIndexed0644Files(t *testing.T) {
	dir := t.TempDir()
	ibs, err := os.ReadFile("../../internal/trace/import/testdata/ibs-samples.csv")
	if err != nil {
		t.Fatal(err)
	}
	ibsIn := filepath.Join(dir, "samples.csv")
	if err := os.WriteFile(ibsIn, ibs, 0o644); err != nil {
		t.Fatal(err)
	}
	p := func(name string) string { return filepath.Join(dir, name) }
	writers := []struct {
		out  string
		args []string
	}{
		{p("live.trace"), []string{"-record", p("live.trace"), "-threads", "4", "-scale", "0.05", "figure1"}},
		{p("sampled.trace"), []string{"-record", p("sampled.trace"), "-record-sampled", "-threads", "4", "-scale", "0.05", "figure1"}},
		{p("rerecorded.trace"), []string{"-record", p("rerecorded.trace"), "-replay", sampleTrace}},
		{p("perf.trace"), []string{"-import-perf", perfFixture, "-record", p("perf.trace")}},
		{ibsIn + ".trace", []string{"-import-ibs", ibsIn}},
		{p("indexed.trace"), []string{"-index", sampleTrace, "-record", p("indexed.trace")}},
		{p("synth.trace"), []string{"-synth-trace", "5000", "-record", p("synth.trace")}},
	}
	for _, w := range writers {
		var out, errOut strings.Builder
		if code := run(w.args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", w.args, code, errOut.String())
		}
		fi, err := os.Stat(w.out)
		if err != nil {
			t.Fatalf("%v: %v", w.args, err)
		}
		if mode := fi.Mode().Perm(); mode != 0o644 {
			t.Errorf("%v: trace mode %#o, want 0644", w.args, mode)
		}
		var info strings.Builder
		if code := run([]string{"-trace-info", w.out}, &info, &errOut); code != 0 {
			t.Fatalf("-trace-info %s: exit %d, stderr:\n%s", w.out, code, errOut.String())
		}
		if !strings.Contains(info.String(), "indexed:  true") {
			t.Errorf("%v: trace is not indexed:\n%s", w.args, info.String())
		}
	}
}

// TestRunMetricsFlagsOffReportPath: the observability flags must not
// perturb the report — stdout is byte-identical with metrics serving,
// span logging and Chrome tracing all enabled.
func TestRunMetricsFlagsOffReportPath(t *testing.T) {
	var plain, plainErr strings.Builder
	if code := run([]string{"-threads", "4", "-scale", "0.2", "figure1"}, &plain, &plainErr); code != 0 {
		t.Fatalf("plain run exit code %d, stderr:\n%s", code, plainErr.String())
	}
	dir := t.TempDir()
	var obs, obsErr strings.Builder
	args := []string{
		"-metrics-addr", "127.0.0.1:0",
		"-span-log", filepath.Join(dir, "spans.jsonl"),
		"-chrome-trace", filepath.Join(dir, "trace.json"),
		"-threads", "4", "-scale", "0.2", "figure1",
	}
	if code := run(args, &obs, &obsErr); code != 0 {
		t.Fatalf("instrumented run exit code %d, stderr:\n%s", code, obsErr.String())
	}
	if plain.String() != obs.String() {
		t.Error("report changed under -metrics-addr/-span-log/-chrome-trace")
	}
	if !strings.Contains(obsErr.String(), "serving metrics and pprof") {
		t.Errorf("stderr missing metrics endpoint line:\n%s", obsErr.String())
	}
	chrome, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(chrome) == 0 || chrome[0] != '[' || !strings.HasSuffix(strings.TrimSpace(string(chrome)), "]") {
		t.Errorf("chrome trace is not a finalized JSON array:\n%.200s", chrome)
	}
}

// TestRunTraceInfoPrintsImportNotes: -trace-info surfaces the skip
// tally the importer embedded as #note records.
func TestRunTraceInfoPrintsImportNotes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "imported.trace")
	var out, errOut strings.Builder
	if code := run([]string{"-import-perf", perfFixture, "-record", path}, &out, &errOut); code != 0 {
		t.Fatalf("import exit code %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "2 skipped: 0 parse, 1 non-mem, 1 kernel") {
		t.Errorf("import summary missing skip breakdown:\n%s", errOut.String())
	}
	var info, infoErr strings.Builder
	if code := run([]string{"-trace-info", path}, &info, &infoErr); code != 0 {
		t.Fatalf("trace-info exit code %d, stderr:\n%s", code, infoErr.String())
	}
	for _, want := range []string{
		"note:     import.source=perf-script",
		"note:     import.skipped_nonmem=1",
		"note:     import.skipped_kernel=1",
	} {
		if !strings.Contains(info.String(), want) {
			t.Errorf("trace-info missing %q:\n%s", want, info.String())
		}
	}
}
