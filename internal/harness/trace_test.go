package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	cheetah "repro"
	"repro/internal/exec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTraceWorkloadRunsAsCell: a recorded trace sweeps through the
// experiment runner as a `trace:<path>` pseudo-workload, and — because
// the cell's core count and PMU configuration match the recording — its
// profiled cell reproduces the recorded run's report byte for byte.
func TestTraceWorkloadRunsAsCell(t *testing.T) {
	scale := 0.1
	if testing.Short() {
		scale = 0.04
	}
	c := Config{Scale: scale, Threads: 4, Cores: 8, Workers: 2, PMU: DetectionPMU()}.withDefaults()

	// Record linear_regression under the profiler with the cell's exact
	// configuration.
	w, _ := workload.ByName("linear_regression")
	sys := cheetah.New(cheetah.Config{Cores: c.Cores})
	prog := w.Build(sys, workload.Params{Threads: c.Threads, Scale: c.Scale})
	path := filepath.Join(t.TempDir(), "lr.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.NewTextEncoder(f), sys.Heap(), sys.Globals())
	prof := sys.NewProfiler(cheetah.ProfileOptions{PMU: c.PMU})
	sys.RunWith(prog, append(prof.Probes(), exec.Probe(rec))...)
	if err := rec.Err(); err != nil {
		t.Fatalf("recording: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := prof.Report().Format()

	// Sweep the trace through a private runner like any other cell.
	r := NewRunner(c.Workers)
	cell := r.profiled("trace:"+path, c, false)
	out := cell.wait()
	if out.Report == nil {
		t.Fatal("trace cell produced no report")
	}
	if got := out.Report.Format(); got != want {
		t.Errorf("trace cell report differs from recorded run\n--- recorded ---\n%s\n--- cell ---\n%s", want, got)
	}
	if r.CellsRun() != 1 {
		t.Errorf("CellsRun = %d, want 1", r.CellsRun())
	}
}

// writeTrace records a tiny figure1 run to a trace file and returns the
// path.
func writeTrace(t *testing.T, dir, name string, scale float64) string {
	t.Helper()
	w, _ := workload.ByName("figure1")
	sys := cheetah.New(cheetah.Config{Cores: 4})
	prog := w.Build(sys, workload.Params{Threads: 2, Scale: scale})
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.NewTextEncoder(f), sys.Heap(), sys.Globals())
	sys.RunWith(prog, exec.Probe(rec))
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceCellIdentityHashesContent: a trace cell's ID is keyed by the
// file's bytes, not just its path — rewriting the file in place yields a
// different cell ID (so sweep caches cannot serve stale results), and a
// registered workload's ID carries no hash (so existing caches stay
// warm).
func TestTraceCellIdentityHashesContent(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "a.trace", 0.02)

	cfg := Config{Scale: 0.02, Threads: 2, Cores: 4, Workers: 1}.withDefaults()
	cellFor := func() Cell {
		c := NewRunner(1).native("trace:"+path, cfg, false)
		c.wait()
		return c.key
	}
	first := cellFor()
	if first.TraceHash == "" {
		t.Fatal("trace cell has no content hash")
	}
	if first.TraceHash != TraceContentHash(path) {
		t.Error("cell hash differs from TraceContentHash")
	}
	if want := "|th" + first.TraceHash; !strings.Contains(first.ID(), want) {
		t.Errorf("cell ID %q does not embed the content hash", first.ID())
	}
	if err := first.Validate(); err != nil {
		t.Errorf("hashed trace cell fails validation: %v", err)
	}

	// Rewrite the file in place with different content: same path, new
	// identity.
	if err := os.Rename(writeTrace(t, dir, "b.trace", 0.03), path); err != nil {
		t.Fatal(err)
	}
	second := cellFor()
	if second.TraceHash == first.TraceHash {
		t.Error("rewriting the trace did not change the cell hash")
	}
	if second.ID() == first.ID() {
		t.Error("rewriting the trace did not change the cell ID")
	}

	// Registered workloads carry no hash and keep their historical IDs.
	r := NewRunner(1)
	native := r.native("figure1", cfg, false).key
	if native.TraceHash != "" {
		t.Errorf("non-trace cell carries hash %q", native.TraceHash)
	}
	if strings.Contains(native.ID(), "|th") {
		t.Errorf("non-trace cell ID %q embeds a hash", native.ID())
	}
}

// TestTraceCellHashValidation: hashes are validated like every other
// external field, and RunCell refuses a cell whose local file content
// diverges from the cell's hash.
func TestTraceCellHashValidation(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "a.trace", 0.02)
	good := Cell{
		Kind: KindNative, Workload: "trace:" + path, Threads: 2, Cores: 4,
		Scale: 0.02, TraceHash: TraceContentHash(path),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid hashed cell rejected: %v", err)
	}

	bad := good
	bad.Workload = "figure1"
	if err := bad.Validate(); err == nil {
		t.Error("non-trace cell with a hash passed validation")
	}
	bad = good
	bad.TraceHash = "short"
	if err := bad.Validate(); err == nil {
		t.Error("truncated hash passed validation")
	}
	bad = good
	bad.TraceHash = strings.Repeat("zz", 32)
	if err := bad.Validate(); err == nil {
		t.Error("non-hex hash passed validation")
	}

	// A worker whose file content diverges must refuse the cell.
	divergent := good
	divergent.TraceHash = TraceContentHash(writeTrace(t, dir, "other.trace", 0.03))
	if _, err := RunCell(divergent); err == nil || !strings.Contains(err.Error(), "content hash") {
		t.Errorf("RunCell on divergent trace content: err = %v, want content-hash mismatch", err)
	}
	if _, err := RunCell(good); err != nil {
		t.Errorf("RunCell on matching trace content failed: %v", err)
	}
}

// TestTraceContentHashStreams: hashing a trace streams the file rather
// than reading it whole, so a sweep worker or gateway job that checks a
// trace cell's hash holds a small buffer, not the trace. The hash is the
// file's plain sha256.
func TestTraceContentHashStreams(t *testing.T) {
	data := make([]byte, 8<<20)
	for i := range data {
		data[i] = byte(i * 2654435761 >> 24)
	}
	path := filepath.Join(t.TempDir(), "big.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	want := hex.EncodeToString(sum[:])

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := TraceContentHash(path)
	runtime.ReadMemStats(&after)
	if got != want {
		t.Errorf("TraceContentHash = %s, want the file's sha256 %s", got, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("hashing an %d MiB file allocated %d bytes, want < 1 MiB", len(data)>>20, alloc)
	}
	if h := TraceContentHash(filepath.Join(t.TempDir(), "missing.trace")); h != "" {
		t.Errorf("hash of a missing file = %q, want empty", h)
	}
}
