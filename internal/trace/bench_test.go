package trace

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
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

// preparedStream opens and prepares path for replay.
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

// loadAll checks every phase of s once, reading every thread's spans
// through the decode loop replay's thread bodies run, as ValidateStream
// does.
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
// every thread's spans of every phase of an indexed trace read and
// decoded, checksums and index cross-checks included.
func BenchmarkStreamLoadPhase(b *testing.B) {
	path, _ := synthTrace(b, SynthConfig{Accesses: 1 << 18, Threads: 8, Phases: 16})
	s := preparedStream(b, path)
	perAccess(b, s.Accesses, func() { loadAll(b, s) })
}

// BenchmarkStreamReplay times streamed replay end to end, in process:
// the thread bodies of a 16-thread synthetic trace decoding their spans
// while the engine simulates it on the coherence simulator, sampled at
// the production period.
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
// trace hot path: decoding a trace, or checking a streamed phase, of 2N
// accesses must not allocate more than one of N. Per-record allocation
// breaks it.
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

// heapSampler tracks the high-water mark of the heap's object bytes
// above their level when it was made.
type heapSampler struct {
	s         []metrics.Sample
	base, max uint64
}

func newHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	h.base = h.read()
	h.max = h.base
	return h
}

func (h *heapSampler) read() uint64 {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64()
}

func (h *heapSampler) sample() { h.max = max(h.max, h.read()) }

// highWater returns the most the heap held above its starting level.
func (h *heapSampler) highWater() uint64 { return h.max - h.base }

// sampleEvery is how many accesses or records pass between heap samples.
const sampleEvery = 1 << 14

// heapProbe samples the heap as the engine runs accesses.
type heapProbe struct {
	exec.BaseProbe
	h *heapSampler
	n int
}

func (p *heapProbe) Access(mem.Access, uint64) uint64 {
	if p.n++; p.n%sampleEvery == 0 {
		p.h.sample()
	}
	return 0
}

// heapEncoder samples the heap as records pass through to an encoder.
type heapEncoder struct {
	Encoder
	h *heapSampler
	n int
}

func (e *heapEncoder) Encode(ev Event) error {
	if e.n++; e.n%sampleEvery == 0 {
		e.h.sample()
	}
	return e.Encoder.Encode(ev)
}

// flatMachine is a memory system with one fixed latency and no state,
// so a replay's heap is the engine's and the trace layer's alone.
type flatMachine struct{ cores int }

func (m flatMachine) Access(int, mem.Addr, bool, uint64) uint32 { return 4 }
func (m flatMachine) Cores() int                                { return m.cores }

// TestStreamMemoryIndependentOfPhaseLength is the memory guard of the
// streamed path, in the style of TestTraceLayerAllocsIndependentOfLength:
// a trace whose records are one parallel phase must record and replay
// under the same heap high-water at 200K and at 2M accesses, and the
// encoder must never hold back more than one block. A replayer that
// holds a phase's records (decoded or not) grows with the phase and
// breaks it. The replay runs on a stateless machine: the coherence
// simulator's own state grows with contention, which is not the trace
// layer's to bound.
func TestStreamMemoryIndependentOfPhaseLength(t *testing.T) {
	// Frequent collections keep garbage from blurring the live heap.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	measure := func(accesses uint64) (encode, replay uint64) {
		path := filepath.Join(t.TempDir(), "one-phase.trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		enc := NewIndexedEncoder(f)
		h := newHeapSampler()
		if err := WriteSynthetic(&heapEncoder{Encoder: enc, h: h}, SynthConfig{Accesses: accesses, Threads: 8, Phases: 1}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// The encoder holds back exactly one block's bytes at most.
		s := preparedStream(t, path)
		var held uint64
		for _, seg := range s.sh.idx.segs {
			for _, b := range seg.blocks {
				held = max(held, b.length)
			}
		}
		if held == 0 || held > blockCap {
			t.Errorf("%d accesses: the encoder held %d bytes back, cap %d", accesses, held, blockCap)
		}
		encode = h.highWater()

		h = newHeapSampler()
		res := exec.New(flatMachine{cores: s.Cores}, exec.DefaultConfig(), &heapProbe{h: h}).Run(s.Program())
		if res.Accesses() != s.Accesses {
			t.Fatalf("replayed %d of %d accesses", res.Accesses(), s.Accesses)
		}
		return encode, h.highWater()
	}
	const slack = 2 << 20
	e1, r1 := measure(200_000)
	e2, r2 := measure(2_000_000)
	t.Logf("heap high-water: encode %d / %d KiB, replay %d / %d KiB (200K / 2M accesses)", e1>>10, e2>>10, r1>>10, r2>>10)
	if e2 > e1+slack {
		t.Errorf("encoding 2M accesses raised the heap %d KiB, 200K %d KiB", e2>>10, e1>>10)
	}
	if r2 > r1+slack {
		t.Errorf("replaying 2M accesses raised the heap %d KiB, 200K %d KiB", r2>>10, r1>>10)
	}
}
