package trace_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	cheetah "repro"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRegenerateV1Corpus rewrites testdata/corpus-v1 — the checked-in v1
// binary traces that TestV1CorpusDecodesUnderV2Reader (and the nightly
// compatibility CI step) guard. It is a generator, not a test: it only
// runs with CHEETAH_REGEN_V1_CORPUS=1, and the files it writes are
// committed. The corpus must only ever be regenerated with an encoder
// that still writes the v1 framing byte-for-byte.
func TestRegenerateV1Corpus(t *testing.T) {
	if os.Getenv("CHEETAH_REGEN_V1_CORPUS") == "" {
		t.Skip("set CHEETAH_REGEN_V1_CORPUS=1 to regenerate the v1 corpus")
	}
	dir := filepath.Join("testdata", "corpus-v1")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	// A recorded real workload: every access of a small figure1 run.
	w, ok := workload.ByName("figure1")
	if !ok {
		t.Fatal("figure1 workload missing")
	}
	sys := cheetah.New(cheetah.Config{Cores: 8})
	prog := w.Build(sys, workload.Params{Threads: 4, Scale: 0.02})
	f, err := os.Create(filepath.Join(dir, "figure1.trace"))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.NewBinaryEncoderV1(f), sys.Heap(), sys.Globals())
	sys.RunWith(prog, rec)
	if err := rec.Err(); err != nil {
		t.Fatalf("recording: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A handcrafted stream exercising every record kind and the odd
	// corners (escaped stack frames, dead objects, empty names).
	evs := []trace.Event{
		{Kind: trace.KindProgram, Name: "corpus handcrafted", Cores: 4},
		{Kind: trace.KindPhase, Phase: 0, Parallel: false, Name: "init"},
		{Kind: trace.KindAccess, TID: 0, Write: true, Addr: 0x10000040, Size: 4, IP: 2, Lat: 3, Phase: 0},
		{Kind: trace.KindThreadEnd, TID: 0, Phase: 0, Instrs: 6},
		{Kind: trace.KindPhase, Phase: 1, Parallel: true, Name: "work"},
		{Kind: trace.KindAccess, TID: 1, Write: false, Addr: 0x40000000, Size: 8, IP: 10, Lat: 180, Phase: 1},
		{Kind: trace.KindAccess, TID: 2, Write: true, Addr: 0x40000008, Size: 4, IP: 11, Lat: 200, Phase: 1},
		{Kind: trace.KindThreadEnd, TID: 1, Phase: 1, Instrs: 20},
		{Kind: trace.KindThreadEnd, TID: 2, Phase: 1, Instrs: 15},
		{Kind: trace.KindSymbol, Name: "main_array", Addr: 0x10000040, Size: 4096},
		{Kind: trace.KindObject, Addr: 0x40000000, Size: 640, Class: 1024, TID: 1, Seq: 7, Live: true,
			Stack: heap.CallStack{
				{File: "linear_regression-pthread.c", Line: 139, Func: "main"},
				{File: "dir with space/file,odd:name.c", Line: 7, Func: "fn%1"},
			}},
		{Kind: trace.KindObject, Addr: 0x40010000, Size: 16, Class: 16, TID: mem.MainThread, Seq: 8},
	}
	f, err = os.Create(filepath.Join(dir, "handcrafted.trace"))
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewBinaryEncoderV1(f)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRegenerateFormat2Fixture rewrites testdata/format2/perf-mem.trace:
// the imported perf mem trace (import/testdata/perf-mem.golden.trace,
// whose threads' records interleave) in the format-2 indexed layout
// earlier builds wrote, which replay must keep reading (cmd/cheetah and
// CI replay it against its golden report). It is a generator, not a
// test: it only runs with CHEETAH_REGEN_FORMAT2_FIXTURE=1, and the file
// it writes is committed.
func TestRegenerateFormat2Fixture(t *testing.T) {
	if os.Getenv("CHEETAH_REGEN_FORMAT2_FIXTURE") == "" {
		t.Skip("set CHEETAH_REGEN_FORMAT2_FIXTURE=1 to regenerate the format-2 fixture")
	}
	in, err := os.Open(filepath.Join("import", "testdata", "perf-mem.golden.trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	dir := filepath.Join("testdata", "format2")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "perf-mem.trace"))
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewIndexedEncoderV2(f)
	d := trace.NewDecoder(in)
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
