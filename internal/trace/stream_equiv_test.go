package trace_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	cheetah "repro"
	"repro/internal/exec/progen"
	"repro/internal/heap"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// streamEquivSeed pins the randomized suite: failures reproduce from
// (seed, case index) alone, and small indices are small programs.
const streamEquivSeed = 0x57E4_CA1E

// streamEquivCases returns the suite size: at least 200 randomized
// programs in -short (CI's push gate), at least 2000 in the nightly
// full run.
func streamEquivCases() int {
	if testing.Short() {
		return 200
	}
	return 2000
}

// recordIndexed generates case i touching either in-segment addresses
// (heap objects and a global, so replay restores them at their recorded
// addresses and the recorded run itself is a valid baseline) or raw
// foreign addresses (exercising the replayer's address synthesis, where
// only replay-vs-replay identity is defined), runs it on a profiled
// 8-core system with an indexed recorder attached, and returns the
// trace file path plus the recorded run's canonical report.
func recordIndexed(t *testing.T, dir string, i int, inSegment bool) (string, string) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("case%d.trace", i))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewIndexedEncoder(f)
	sys := cheetah.New(cheetah.Config{Cores: 8})
	var addrs []mem.Addr
	if inSegment {
		addrs = []mem.Addr{
			sys.Heap().Malloc(0, 256, heap.Stack(heap.Frame{File: "equiv.c", Line: 10, Func: "alloc_a"})),
			sys.Heap().Malloc(1, 512, heap.Stack(heap.Frame{File: "equiv.c", Line: 20, Func: "alloc_b"})),
			sys.Globals().Define("equiv_global", 128),
		}
	} else {
		addrs = []mem.Addr{0x1000, 0x1040, 0x2040, 0x8000}
	}
	prog := progen.Generate(progen.Config{
		Seed: streamEquivSeed, Case: i, Addrs: addrs, MaxThreads: 8,
	})
	rec := trace.NewRecorder(enc, sys.Heap(), sys.Globals())
	prof := sys.NewProfiler(cheetah.ProfileOptions{PMU: densePMU()})
	res := sys.RunWith(prog, append(prof.Probes(), rec)...)
	// The recorder closes the encoder at program end; Err surfaces both
	// stream and indexing failures.
	if err := rec.Err(); err != nil {
		t.Fatalf("case %d: recording: %v", i, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, canonicalReport(prof.Report()) + fmt.Sprintf("runtime %d cycles\n", res.TotalCycles)
}

// fullReplayReport replays the whole trace in memory on the machine m
// (the zero Model is the canonical one traces record on).
func fullReplayReport(t *testing.T, path string, m machine.Model) string {
	t.Helper()
	rp, err := trace.ReadFile(path)
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	sys := cheetah.New(cheetah.Config{Cores: rp.Cores, Machine: m})
	if err := rp.Prepare(sys.Heap(), sys.Globals()); err != nil {
		t.Fatalf("full replay prepare: %v", err)
	}
	rep, res := sys.Profile(rp.Program(), cheetah.ProfileOptions{PMU: densePMU()})
	return canonicalReport(rep) + fmt.Sprintf("runtime %d cycles\n", res.TotalCycles)
}

// streamReplayReport replays the trace phase-by-phase through the
// windowed streaming replayer on the machine m.
func streamReplayReport(t *testing.T, path string, m machine.Model) string {
	t.Helper()
	sr, err := trace.OpenStream(path)
	if err != nil {
		t.Fatalf("stream replay: %v", err)
	}
	sys := cheetah.New(cheetah.Config{Cores: sr.Cores, Machine: m})
	if err := sr.Prepare(sys.Heap(), sys.Globals()); err != nil {
		t.Fatalf("stream replay prepare: %v", err)
	}
	rep, res := sys.Profile(sr.Program(), cheetah.ProfileOptions{PMU: densePMU()})
	return canonicalReport(rep) + fmt.Sprintf("runtime %d cycles\n", res.TotalCycles)
}

// TestStreamedReplayEquivalence is the tentpole's equivalence suite:
// for randomized generated programs, the streamed (windowed,
// out-of-core) replay of the recorded indexed trace must produce a
// detection report and runtime byte-identical to the full in-memory
// replay — and to the recorded run itself. Every third case replays on
// the numa2x24 machine instead
// of the recording's, so the engine consumes records in an order other
// than the file's and the phase loader's queues skew. ≥200 cases in
// -short, ≥2000 nightly; cases grow from trivially small, so the first
// failing index is already near-minimal.
func TestStreamedReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	numa, _ := machine.Preset("numa2x24")
	for i := 0; i < streamEquivCases(); i++ {
		// Even cases touch in-segment addresses (recorded == replay holds
		// and is asserted); odd cases touch raw foreign addresses, where
		// replay synthesizes fresh objects — the recorded run is not a
		// baseline there, but full and streamed replay must still agree.
		inSegment := i%2 == 0
		path, recorded := recordIndexed(t, dir, i, inSegment)
		var m machine.Model
		if i%3 == 2 {
			m = numa
		}

		full := fullReplayReport(t, path, m)
		if inSegment && m.Name == "" && full != recorded {
			t.Fatalf("case %d (seed %#x): full replay differs from recorded run\n--- recorded ---\n%s\n--- full ---\n%s",
				i, streamEquivSeed, recorded, full)
		}
		if stream := streamReplayReport(t, path, m); stream != full {
			t.Fatalf("case %d (seed %#x, machine %q): streamed replay differs from full replay\n--- full ---\n%s\n--- stream ---\n%s",
				i, streamEquivSeed, m.Name, full, stream)
		}
		// The trace files accumulate in dir; drop each case's file once
		// proven so the nightly 2000-case run stays light on disk.
		os.Remove(path)
	}

	// A synthetic trace writes each thread's records in one run, so 16
	// threads of many chunks each arrive at their bodies in file order,
	// thread after thread — the opposite of the engine's interleaving.
	path := filepath.Join(dir, "synth.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewIndexedEncoder(f)
	if err := trace.WriteSynthetic(enc, trace.SynthConfig{Accesses: 1 << 18, Threads: 16, Phases: 2}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []machine.Model{{}, numa} {
		full := fullReplayReport(t, path, m)
		if stream := streamReplayReport(t, path, m); stream != full {
			t.Fatalf("synthetic trace (machine %q): streamed replay differs from full replay\n--- full ---\n%s\n--- stream ---\n%s",
				m.Name, full, stream)
		}
	}
}

// TestStreamedRangeConcatenation: replaying phase ranges on fresh
// systems and concatenating the sub-reports must reproduce the phase
// structure of the whole run — the contract ranged `trace:<path>@lo-hi`
// names rest on. Every phase of the full replay appears in exactly one
// range replay, with the ranges' total access counts summing to the
// trace's.
func TestStreamedRangeConcatenation(t *testing.T) {
	dir := t.TempDir()
	cases := 25
	if testing.Short() {
		cases = 10
	}
	split := 0
	for i := 0; i < cases; i++ {
		path, _ := recordIndexed(t, dir, 40+i, false)

		sr, err := trace.OpenStream(path)
		if err != nil {
			t.Fatal(err)
		}
		if sr.MaxPhase() < 1 {
			continue // single-phase program: nothing to split
		}
		split++
		mid := sr.MaxPhase() / 2

		runRange := func(lo, hi int) cheetah.Result {
			s, err := trace.OpenStream(path)
			if err != nil {
				t.Fatal(err)
			}
			sys := cheetah.New(cheetah.Config{Cores: s.Cores})
			if err := s.Prepare(sys.Heap(), sys.Globals()); err != nil {
				t.Fatal(err)
			}
			return sys.Run(s.ProgramRange(lo, hi))
		}
		lowRes := runRange(0, mid)
		highRes := runRange(mid+1, sr.MaxPhase())
		fullRes := runRange(0, sr.MaxPhase())
		if len(lowRes.Phases)+len(highRes.Phases) != len(fullRes.Phases) {
			t.Fatalf("case %d: split replays cover %d+%d phases, full replay has %d",
				40+i, len(lowRes.Phases), len(highRes.Phases), len(fullRes.Phases))
		}
		os.Remove(path)
	}
	if split == 0 {
		t.Fatal("no multi-phase cases generated; the range suite is vacuous")
	}
}

// TestSyntheticStreamedReplayMatchesFull: the trace `cheetah
// -synth-trace` writes (16 threads, 256 phases) replays through
// trace.ReadFile and through trace.OpenStream to identical reports on
// opteron48 and on numa2x24, where the engine consumes records out of
// file order. 200K accesses in -short; 2M in the full run, the size of
// the nightly out-of-core memory gate's trace.
func TestSyntheticStreamedReplayMatchesFull(t *testing.T) {
	accesses := uint64(2_000_000)
	if testing.Short() {
		accesses = 200_000
	}
	path := filepath.Join(t.TempDir(), "synth.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewIndexedEncoder(f)
	if err := trace.WriteSynthetic(enc, trace.SynthConfig{Accesses: accesses, Threads: 16}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	numa, _ := machine.Preset("numa2x24")
	for _, m := range []machine.Model{{}, numa} {
		full := fullReplayReport(t, path, m)
		if stream := streamReplayReport(t, path, m); stream != full {
			t.Errorf("machine %q: streamed replay differs from full replay\n--- full ---\n%s\n--- stream ---\n%s",
				m.Name, full, stream)
		}
	}
}

// writeTraceFile writes a trace to path through the encoder newEnc
// makes; write may close the encoder itself, as the recorder does.
func writeTraceFile(t *testing.T, path string, newEnc func(io.Writer) trace.Encoder, write func(trace.Encoder) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := newEnc(f)
	if err := write(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFormat2TracesStillReplay: a trace in the interleaved format-2
// layout earlier builds wrote — each segment one checksummed span of
// every thread's records — prints the same report streamed (every body
// reading the whole segment), loaded in full, and streamed again after
// the conversion `cheetah -index` makes, on opteron48 and numa2x24. The
// traces are a recorded workload run, a program touching foreign
// addresses (replay synthesizes objects for them) and a 16-thread
// synthetic trace.
func TestFormat2TracesStillReplay(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]func(trace.Encoder) error{
		"linear_regression": func(enc trace.Encoder) error {
			w, _ := workload.ByName("linear_regression")
			sys := cheetah.New(cheetah.Config{})
			rec := trace.NewRecorder(enc, sys.Heap(), sys.Globals())
			sys.RunWith(w.Build(sys, workload.Params{Threads: 4, Scale: 0.02}), rec)
			return rec.Err()
		},
		"foreign": func(enc trace.Encoder) error {
			sys := cheetah.New(cheetah.Config{Cores: 8})
			prog := progen.Generate(progen.Config{
				Seed: streamEquivSeed, Case: 31, Addrs: []mem.Addr{0x1000, 0x1040, 0x2040, 0x8000}, MaxThreads: 8,
			})
			rec := trace.NewRecorder(enc, sys.Heap(), sys.Globals())
			sys.RunWith(prog, rec)
			return rec.Err()
		},
		"synthetic": func(enc trace.Encoder) error {
			return trace.WriteSynthetic(enc, trace.SynthConfig{Accesses: 1 << 16, Threads: 16, Phases: 4})
		},
	}
	numa, _ := machine.Preset("numa2x24")
	for name, write := range cases {
		t.Run(name, func(t *testing.T) {
			old := filepath.Join(dir, name+".v2.trace")
			writeTraceFile(t, old, trace.NewIndexedEncoderV2, write)
			converted := filepath.Join(dir, name+".v3.trace")
			writeTraceFile(t, converted, func(w io.Writer) trace.Encoder { return trace.NewIndexedEncoder(w) },
				func(enc trace.Encoder) error {
					f, err := os.Open(old)
					if err != nil {
						return err
					}
					defer f.Close()
					d := trace.NewDecoder(f)
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
			for path, want := range map[string]int{old: 2, converted: 3} {
				if got, err := trace.IndexFormat(path); err != nil || got != want {
					t.Fatalf("%s: index format %d (%v), want %d", path, got, err, want)
				}
			}
			for _, m := range []machine.Model{{}, numa} {
				full := fullReplayReport(t, old, m)
				if stream := streamReplayReport(t, old, m); stream != full {
					t.Errorf("machine %q: streamed format-2 replay differs from full replay\n--- full ---\n%s\n--- stream ---\n%s",
						m.Name, full, stream)
				}
				if conv := streamReplayReport(t, converted, m); conv != full {
					t.Errorf("machine %q: the converted trace's replay differs from the format-2 trace's\n--- format 2 ---\n%s\n--- converted ---\n%s",
						m.Name, full, conv)
				}
			}
		})
	}
}
