package traceimport_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cheetah "repro"
	"repro/internal/pmu"
	"repro/internal/trace"
	traceimport "repro/internal/trace/import"
)

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// importToText runs an importer over a fixture and returns the native
// text-framed trace it produces.
func importToText(t *testing.T, fixture string, imp func(*bytes.Reader, trace.Encoder) (traceimport.Stats, error)) ([]byte, traceimport.Stats) {
	t.Helper()
	var out bytes.Buffer
	st, err := imp(bytes.NewReader(readFixture(t, fixture)), trace.NewTextEncoder(&out))
	if err != nil {
		t.Fatalf("import %s: %v", fixture, err)
	}
	return out.Bytes(), st
}

func importPerf(r *bytes.Reader, enc trace.Encoder) (traceimport.Stats, error) {
	return traceimport.ImportPerfScript(r, enc, traceimport.Options{})
}

func importIBS(r *bytes.Reader, enc trace.Encoder) (traceimport.Stats, error) {
	return traceimport.ImportIBS(r, enc, traceimport.Options{})
}

// TestImportPerfScriptFixture pins the perf importer's synthesis on the
// checked-in fixture: thread remapping, phase splitting, skip counting,
// and byte-exact output against the golden trace.
func TestImportPerfScriptFixture(t *testing.T) {
	got, st := importToText(t, "perf-mem.script", importPerf)
	if st.Threads != 4 {
		t.Errorf("Threads = %d, want 4", st.Threads)
	}
	// Two sample bursts plus the tolerated stragglers after a long gap.
	if st.Phases != 3 {
		t.Errorf("Phases = %d, want 3", st.Phases)
	}
	// The cycles: event and the kernel-address sample must be skipped,
	// each under its own reason.
	if st.Skipped != 2 || st.SkippedNonMem != 1 || st.SkippedKernel != 1 || st.SkippedParse != 0 {
		t.Errorf("skip tally = %d (parse %d, nonmem %d, kernel %d), want 2 (0, 1, 1)",
			st.Skipped, st.SkippedParse, st.SkippedNonMem, st.SkippedKernel)
	}
	if st.Samples != 114 {
		t.Errorf("Samples = %d, want 114", st.Samples)
	}
	compareGolden(t, "perf-mem.golden.trace", got)

	rp, err := trace.Read(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("imported trace does not decode: %v", err)
	}
	if rp.Name != "fs_app" {
		t.Errorf("program name = %q, want the dump's comm %q", rp.Name, "fs_app")
	}
	if rp.Cores != 4 {
		t.Errorf("cores = %d, want 4 (one per sampled thread)", rp.Cores)
	}

	// The skip tally must ride along in the trace itself as notes, so
	// `cheetah -trace-info` can report it long after the import.
	m, err := trace.ReadMeta(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("ReadMeta on imported trace: %v", err)
	}
	wantNotes := []string{
		"import.source=perf-script",
		"import.skipped_nonmem=1",
		"import.skipped_kernel=1",
	}
	if fmt.Sprint(m.Notes) != fmt.Sprint(wantNotes) {
		t.Errorf("Notes = %v, want %v", m.Notes, wantNotes)
	}
}

// TestImportIBSFixture pins the IBS importer on its fixture.
func TestImportIBSFixture(t *testing.T) {
	got, st := importToText(t, "ibs-samples.csv", importIBS)
	if st.Threads != 2 {
		t.Errorf("Threads = %d, want 2", st.Threads)
	}
	if st.Phases != 2 {
		t.Errorf("Phases = %d, want 2", st.Phases)
	}
	// 10 non-memory op rows plus the kernel-address row.
	if st.Skipped != 11 || st.SkippedNonMem != 10 || st.SkippedKernel != 1 || st.SkippedParse != 0 {
		t.Errorf("skip tally = %d (parse %d, nonmem %d, kernel %d), want 11 (0, 10, 1)",
			st.Skipped, st.SkippedParse, st.SkippedNonMem, st.SkippedKernel)
	}
	compareGolden(t, "ibs-samples.golden.trace", got)

	rp, err := trace.Read(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("imported trace does not decode: %v", err)
	}
	if rp.Cores != 2 {
		t.Errorf("cores = %d, want 2", rp.Cores)
	}
}

// compareGolden diffs got against the checked-in golden file;
// CHEETAH_REGEN_IMPORT_GOLDEN=1 rewrites it instead.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("CHEETAH_REGEN_IMPORT_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set CHEETAH_REGEN_IMPORT_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("imported trace differs from %s (set CHEETAH_REGEN_IMPORT_GOLDEN=1 after intentional changes)\ngot %d bytes, want %d", name, len(got), len(want))
	}
}

// profileImported replays an imported trace under a fixed PMU and
// renders the detection report.
func profileImported(t *testing.T, data []byte) string {
	t.Helper()
	rp, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reading imported trace: %v", err)
	}
	sys := cheetah.New(cheetah.Config{Cores: rp.Cores})
	if err := rp.Prepare(sys.Heap(), sys.Globals()); err != nil {
		t.Fatalf("preparing imported trace: %v", err)
	}
	rep, res := sys.Profile(rp.Program(), cheetah.ProfileOptions{
		PMU: pmu.Config{Period: 64, Jitter: 24, HandlerCycles: 4},
	})
	var b strings.Builder
	b.WriteString(rep.Format())
	for i := range rep.Instances {
		b.WriteString(rep.Instances[i].FormatWords())
	}
	fmt.Fprintf(&b, "runtime %d cycles across %d phases\n", res.TotalCycles, len(res.Phases))
	return b.String()
}

// TestImportedTraceReplaysDeterministically is the acceptance bar: an
// imported real-PMU trace replays to a byte-identical detection report
// across runs, in both framings.
func TestImportedTraceReplaysDeterministically(t *testing.T) {
	for _, fixture := range []struct {
		name string
		imp  func(*bytes.Reader, trace.Encoder) (traceimport.Stats, error)
	}{
		{"perf-mem.script", importPerf},
		{"ibs-samples.csv", importIBS},
	} {
		fixture := fixture
		t.Run(fixture.name, func(t *testing.T) {
			text, _ := importToText(t, fixture.name, fixture.imp)
			var bin bytes.Buffer
			if _, err := fixture.imp(bytes.NewReader(readFixture(t, fixture.name)), trace.NewBinaryEncoder(&bin)); err != nil {
				t.Fatalf("binary import: %v", err)
			}

			base := profileImported(t, text)
			if again := profileImported(t, text); again != base {
				t.Error("two replays of the same imported trace diverge")
			}
			if b := profileImported(t, bin.Bytes()); b != base {
				t.Error("binary-framed import replays differently from text-framed import")
			}
			if !strings.Contains(base, "fs_app") && fixture.name == "perf-mem.script" {
				t.Errorf("report does not name the imported program:\n%s", base)
			}
		})
	}
}

// TestImportErrors: structurally unusable inputs fail with diagnostics
// instead of producing empty traces.
func TestImportErrors(t *testing.T) {
	cases := []struct {
		name string
		imp  func(*bytes.Reader, trace.Encoder) (traceimport.Stats, error)
		in   string
		want string
	}{
		{"perf empty", importPerf, "", "no usable memory samples"},
		{"perf no mem events", importPerf,
			"app 1 [000] 1.000000: cycles: 55d8 7f2a 0\n", "no usable memory samples"},
		{"ibs empty", importIBS, "", "no IBS header"},
		{"ibs missing columns", importIBS, "tsc,cpu,pid\n1,2,3\n", "missing required columns"},
		{"ibs header only", importIBS,
			"tsc,tid,ibs_ld_op,ibs_st_op,ibs_dc_lin_ad\n", "no usable memory samples"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			_, err := tc.imp(bytes.NewReader([]byte(tc.in)), trace.NewTextEncoder(&out))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestImportOptions: explicit cores/name/phase-gap options override the
// synthesized defaults.
func TestImportOptions(t *testing.T) {
	var out bytes.Buffer
	_, err := traceimport.ImportPerfScript(bytes.NewReader(readFixture(t, "perf-mem.script")),
		trace.NewTextEncoder(&out),
		traceimport.Options{ProgramName: "renamed", Cores: 16, PhaseGap: -1})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := trace.Read(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Name != "renamed" {
		t.Errorf("name = %q, want %q", rp.Name, "renamed")
	}
	if rp.Cores != 16 {
		t.Errorf("cores = %d, want 16", rp.Cores)
	}
	if strings.Count(out.String(), "#phase") != 1 {
		t.Errorf("PhaseGap<0 should disable splitting; got %d phases", strings.Count(out.String(), "#phase"))
	}
}
