package trace

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/symtab"
)

// synthTrace writes an indexed synthetic trace sized by cfg and returns
// its path and bytes.
func synthTrace(tb testing.TB, cfg SynthConfig) (string, []byte) {
	tb.Helper()
	var buf bytes.Buffer
	enc := NewIndexedEncoder(&buf)
	if err := WriteSynthetic(enc, cfg); err != nil {
		tb.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "synth.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path, buf.Bytes()
}

// countAccesses runs the bare NewDecoder/Next loop over data and returns the
// access count.
func countAccesses(tb testing.TB, data []byte) uint64 {
	var n uint64
	d := NewDecoder(bytes.NewReader(data))
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			tb.Fatal(err)
		}
		if ev.Kind == KindAccess {
			n++
		}
	}
}

// preparedStream opens and prepares path for window loads.
func preparedStream(tb testing.TB, path string) *StreamReplay {
	tb.Helper()
	s, err := OpenStream(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Prepare(heap.New(heap.Config{}), symtab.New(symtab.Config{})); err != nil {
		tb.Fatal(err)
	}
	return s
}

// loadAll loads every phase window of s once, through the decode loop
// the replay's phase loaders run.
func loadAll(tb testing.TB, s *StreamReplay) {
	for si := range s.sh.idx.segs {
		if err := s.verifyPhase(si); err != nil {
			tb.Fatal(err)
		}
	}
}

// perAccess reports the benchmark's cost per decoded access: ns/access
// from the timer and allocs/access from the heap's malloc count.
func perAccess(b *testing.B, accesses uint64, run func()) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(accesses) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/access")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/access")
}

// BenchmarkDecode times the bare sequential decoder: NewDecoder and a
// Next loop over an in-memory indexed trace.
func BenchmarkDecode(b *testing.B) {
	_, data := synthTrace(b, SynthConfig{Accesses: 1 << 18, Threads: 8, Phases: 16})
	accesses := countAccesses(b, data)
	perAccess(b, accesses, func() { countAccesses(b, data) })
}

// BenchmarkStreamLoadPhase times streaming replay's decode loop alone:
// every phase of an indexed trace decoded into per-thread operation
// chunks, checksums and index cross-checks included.
func BenchmarkStreamLoadPhase(b *testing.B) {
	path, _ := synthTrace(b, SynthConfig{Accesses: 1 << 18, Threads: 8, Phases: 16})
	s := preparedStream(b, path)
	perAccess(b, s.Accesses, func() { loadAll(b, s) })
}

// BenchmarkStreamReplay times streamed replay end to end, in process:
// phase loaders decoding a 16-thread synthetic trace while the engine
// simulates it on the coherence simulator, sampled at the production
// period.
func BenchmarkStreamReplay(b *testing.B) {
	path, _ := synthTrace(b, SynthConfig{Accesses: 1 << 18, Threads: 16, Phases: 16})
	s := preparedStream(b, path)
	prog := s.Program()
	sampler := pmu.Config{Period: 64 * 1024, Jitter: 16 * 1024, HandlerCycles: 4, SetupCycles: 4700}
	perAccess(b, s.Accesses, func() {
		p := pmu.New(sampler, pmu.HandlerFunc(func(mem.Access, uint64) {}))
		exec.New(cache.New(cache.DefaultConfig(s.Cores)), exec.DefaultConfig(), p).Run(prog)
	})
}

// leastAllocs returns the fewest allocations per call of f over a few
// measurements: runtime and test-framework goroutines occasionally
// allocate during one, and such noise only ever adds.
func leastAllocs(f func()) float64 {
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		least = min(least, testing.AllocsPerRun(5, f))
	}
	return least
}

// TestTraceLayerAllocsIndependentOfLength is the allocation guard of the
// trace hot path: decoding a trace, or loading a phase window, of 2N
// accesses must not allocate more than one of N. Per-record allocation
// (or an operation chunk that is never reused) breaks it.
func TestTraceLayerAllocsIndependentOfLength(t *testing.T) {
	const n = 1 << 14
	_, small := synthTrace(t, SynthConfig{Accesses: n, Threads: 8, Phases: 1})
	_, large := synthTrace(t, SynthConfig{Accesses: 2 * n, Threads: 8, Phases: 1})
	decode := func(data []byte) float64 {
		return leastAllocs(func() { countAccesses(t, data) })
	}
	if a, b := decode(small), decode(large); b > a {
		t.Errorf("decoding %d accesses allocates %.0f times, %d accesses %.0f times", 2*n, b, n, a)
	}

	smallPath, _ := synthTrace(t, SynthConfig{Accesses: n, Threads: 8, Phases: 1})
	largePath, _ := synthTrace(t, SynthConfig{Accesses: 2 * n, Threads: 8, Phases: 1})
	load := func(path string) float64 {
		s := preparedStream(t, path)
		return leastAllocs(func() { loadAll(t, s) })
	}
	if a, b := load(smallPath), load(largePath); b > a {
		t.Errorf("loading a phase of %d accesses allocates %.0f times, of %d accesses %.0f times", 2*n, b, n, a)
	}
}
