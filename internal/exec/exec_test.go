package exec

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
)

// fixedMachine returns a constant latency for every access, for tests
// that need simple arithmetic.
type fixedMachine struct {
	cores   int
	latency uint32
	log     []mem.Access
}

func (m *fixedMachine) Access(core int, addr mem.Addr, write bool, now uint64) uint32 {
	return m.latency
}
func (m *fixedMachine) Cores() int { return m.cores }

// recorder captures probe callbacks.
type recorder struct {
	BaseProbe
	accesses     []mem.Access
	threads      []ThreadInfo
	phases       []PhaseInfo
	startCharge  uint64
	accessCharge uint64
	total        uint64
}

func (r *recorder) ThreadStart(th ThreadInfo) uint64 {
	return r.startCharge
}

func (r *recorder) ThreadEnd(th ThreadInfo) { r.threads = append(r.threads, th) }

func (r *recorder) PhaseEnd(ph PhaseInfo) { r.phases = append(r.phases, ph) }

func (r *recorder) Access(a mem.Access, instrs uint64) uint64 {
	r.accesses = append(r.accesses, a)
	return r.accessCharge
}

func (r *recorder) ProgramEnd(total uint64) { r.total = total }

func TestSerialPhaseTiming(t *testing.T) {
	m := &fixedMachine{cores: 4, latency: 10}
	e := New(m, Config{OpBuffer: 8})
	res := e.Run(Program{
		Name: "serial",
		Phases: []Phase{
			SerialPhase("init", func(tt *T) {
				tt.Compute(100)
				tt.Store(0x40)
				tt.Load(0x80)
			}),
		},
	})
	// 100 compute + 2 accesses * 10 cycles.
	if res.TotalCycles != 120 {
		t.Errorf("TotalCycles = %d, want 120", res.TotalCycles)
	}
	if len(res.Threads) != 1 || res.Threads[0].ID != mem.MainThread {
		t.Fatalf("threads = %+v, want single main thread", res.Threads)
	}
	if res.Threads[0].Instrs != 102 {
		t.Errorf("Instrs = %d, want 102", res.Threads[0].Instrs)
	}
	if res.Threads[0].MemAccesses != 2 || res.Threads[0].MemCycles != 20 {
		t.Errorf("mem counters = (%d, %d), want (2, 20)",
			res.Threads[0].MemAccesses, res.Threads[0].MemCycles)
	}
}

func TestParallelPhaseForkJoinTiming(t *testing.T) {
	m := &fixedMachine{cores: 4, latency: 5}
	cfg := Config{ThreadCreateCycles: 100, ThreadJoinCycles: 50, OpBuffer: 8}
	e := New(m, cfg)
	work := func(n int) Body {
		return func(tt *T) { tt.Compute(n) }
	}
	res := e.Run(Program{
		Name:   "fork-join",
		Phases: []Phase{ParallelPhase("work", work(1000), work(2000))},
	})
	// Thread 0 starts at 0, ends 1000; thread 1 starts at 100, ends 2100.
	// Phase end = 2100 + 2*50 join cost.
	if res.TotalCycles != 2200 {
		t.Errorf("TotalCycles = %d, want 2200", res.TotalCycles)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("got %d thread records, want 2", len(res.Threads))
	}
	for _, th := range res.Threads {
		if th.ID == 1 && th.Runtime() != 1000 {
			t.Errorf("thread 1 runtime = %d, want 1000", th.Runtime())
		}
		if th.ID == 2 && th.Runtime() != 2000 {
			t.Errorf("thread 2 runtime = %d, want 2000", th.Runtime())
		}
	}
}

func TestThreadIDsMonotonicAcrossPhases(t *testing.T) {
	m := &fixedMachine{cores: 8, latency: 1}
	e := New(m, Config{OpBuffer: 8})
	noop := func(tt *T) { tt.Compute(1) }
	rec := &recorder{}
	e2 := New(m, Config{OpBuffer: 8}, rec)
	prog := Program{
		Name: "phased",
		Phases: []Phase{
			SerialPhase("s1", noop),
			ParallelPhase("p1", noop, noop),
			SerialPhase("s2", noop),
			ParallelPhase("p2", noop, noop, noop),
		},
	}
	e.Run(prog)
	res := e2.Run(prog)
	seen := map[mem.ThreadID]bool{}
	for _, th := range res.Threads {
		seen[th.ID] = true
	}
	// Main thread appears for serial phases; parallel threads are 1..5.
	for id := mem.ThreadID(1); id <= 5; id++ {
		if !seen[id] {
			t.Errorf("thread id %d missing; records %+v", id, res.Threads)
		}
	}
	if len(res.Phases) != 4 {
		t.Errorf("got %d phases, want 4", len(res.Phases))
	}
	for i, ph := range res.Phases {
		if ph.Index != i {
			t.Errorf("phase %d has index %d", i, ph.Index)
		}
		if i > 0 && ph.Start != res.Phases[i-1].End {
			t.Errorf("phase %d starts at %d, previous ended at %d", i, ph.Start, res.Phases[i-1].End)
		}
	}
}

func TestVirtualTimeInterleavingIsFair(t *testing.T) {
	// Two identical threads alternate stores; with a real cache simulator
	// their accesses must interleave rather than run back-to-back.
	sim := cache.New(cache.DefaultConfig(4))
	rec := &recorder{}
	e := New(sim, Config{OpBuffer: 4}, rec)
	body := func(base mem.Addr) Body {
		return func(tt *T) {
			for i := 0; i < 100; i++ {
				tt.Store(base)
				tt.Compute(10)
			}
		}
	}
	e.Run(Program{
		Name:   "interleave",
		Phases: []Phase{ParallelPhase("p", body(0x1000), body(0x1004))},
	})
	// Count the longest run of consecutive accesses by one thread.
	longest, run := 0, 0
	var prev mem.ThreadID = -1
	for _, a := range rec.accesses {
		if a.Thread == prev {
			run++
		} else {
			run = 1
			prev = a.Thread
		}
		if run > longest {
			longest = run
		}
	}
	// The cache model's ownership hold lets a thread batch accesses while
	// a steal is in flight, so runs up to roughly hold/iteration-cost are
	// expected — but not monopolization.
	if longest > 64 {
		t.Errorf("longest single-thread access run = %d, want bounded batching", longest)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() (Result, []mem.Access) {
		sim := cache.New(cache.DefaultConfig(8))
		rec := &recorder{}
		e := New(sim, DefaultConfig(), rec)
		bodies := make([]Body, 6)
		for i := range bodies {
			base := mem.Addr(0x2000 + i*4)
			bodies[i] = func(tt *T) {
				for j := 0; j < 500; j++ {
					tt.Store(base)
					tt.Load(base + 64)
					tt.Compute(7)
				}
			}
		}
		res := e.Run(Program{Name: "det", Phases: []Phase{ParallelPhase("p", bodies...)}})
		return res, rec.accesses
	}
	r1, a1 := build()
	r2, a2 := build()
	if r1.TotalCycles != r2.TotalCycles {
		t.Fatalf("nondeterministic total: %d vs %d", r1.TotalCycles, r2.TotalCycles)
	}
	if len(a1) != len(a2) {
		t.Fatalf("nondeterministic access counts: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

func TestProbeOverheadCharged(t *testing.T) {
	m := &fixedMachine{cores: 2, latency: 10}
	rec := &recorder{startCharge: 1000, accessCharge: 3}
	e := New(m, Config{OpBuffer: 8}, rec)
	res := e.Run(Program{
		Name: "overhead",
		Phases: []Phase{
			SerialPhase("s", func(tt *T) {
				for i := 0; i < 10; i++ {
					tt.Store(mem.Addr(i * 64))
				}
			}),
		},
	})
	// 1000 setup + 10*(10 latency + 3 handler).
	if res.TotalCycles != 1000+10*13 {
		t.Errorf("TotalCycles = %d, want %d", res.TotalCycles, 1000+10*13)
	}
}

func TestAccessRecordFields(t *testing.T) {
	m := &fixedMachine{cores: 2, latency: 7}
	rec := &recorder{}
	e := New(m, Config{OpBuffer: 8}, rec)
	e.Run(Program{
		Name: "fields",
		Phases: []Phase{
			SerialPhase("s", func(tt *T) {
				tt.Compute(5)
				tt.Store8(0x123)
				tt.Load(0x456)
			}),
		},
	})
	if len(rec.accesses) != 2 {
		t.Fatalf("got %d accesses, want 2", len(rec.accesses))
	}
	w := rec.accesses[0]
	if w.Addr != 0x123 || w.Kind != mem.Write || w.Size != 8 || w.Latency != 7 || w.Time != 5 {
		t.Errorf("write access = %+v", w)
	}
	r := rec.accesses[1]
	if r.Addr != 0x456 || r.Kind != mem.Read || r.Size != 4 || r.Time != 12 {
		t.Errorf("read access = %+v", r)
	}
}

func TestLargeComputeChunks(t *testing.T) {
	m := &fixedMachine{cores: 2, latency: 1}
	e := New(m, Config{OpBuffer: 8})
	res := e.Run(Program{
		Name: "big",
		Phases: []Phase{
			SerialPhase("s", func(tt *T) { tt.Compute(3 << 30) }),
		},
	})
	if res.TotalCycles != 3<<30 {
		t.Errorf("TotalCycles = %d, want %d", res.TotalCycles, 3<<30)
	}
}

func TestEmptyPhaseAndBody(t *testing.T) {
	m := &fixedMachine{cores: 2, latency: 1}
	e := New(m, Config{OpBuffer: 8})
	res := e.Run(Program{
		Name: "empty",
		Phases: []Phase{
			{Name: "none"},
			SerialPhase("nothing", func(tt *T) {}),
		},
	})
	if res.TotalCycles != 0 {
		t.Errorf("TotalCycles = %d, want 0", res.TotalCycles)
	}
}

func TestMoreThreadsThanCores(t *testing.T) {
	sim := cache.New(cache.DefaultConfig(4))
	e := New(sim, DefaultConfig())
	bodies := make([]Body, 10)
	for i := range bodies {
		base := mem.Addr(0x9000 + i*128)
		bodies[i] = func(tt *T) {
			for j := 0; j < 50; j++ {
				tt.Store(base)
			}
		}
	}
	res := e.Run(Program{Name: "oversub", Phases: []Phase{ParallelPhase("p", bodies...)}})
	if len(res.Threads) != 10 {
		t.Fatalf("got %d threads, want 10", len(res.Threads))
	}
	for _, th := range res.Threads {
		if th.Core <= 0 || th.Core >= 4 {
			t.Errorf("thread %d on core %d, want worker cores 1..3", th.ID, th.Core)
		}
	}
}

func TestSerialPhaseWithMultipleBodiesPanics(t *testing.T) {
	m := &fixedMachine{cores: 2, latency: 1}
	e := New(m, Config{OpBuffer: 8})
	defer func() {
		if recover() == nil {
			t.Error("serial phase with 2 bodies did not panic")
		}
	}()
	noop := func(tt *T) {}
	e.Run(Program{Phases: []Phase{{Name: "bad", Bodies: []Body{noop, noop}, Serial: true}}})
}

// TestBodyPanicReRaisedFromRun: a panic inside one thread body must
// reach the goroutine that called Run, carrying the original value and
// the body's stack, only after the phase's other threads have finished,
// so that no generator goroutine is left blocked behind the failed run.
func TestBodyPanicReRaisedFromRun(t *testing.T) {
	before := runtime.NumGoroutine()
	m := &fixedMachine{cores: 4, latency: 1}
	e := New(m, Config{OpBuffer: 8})
	busy := func(tt *T) {
		for i := 0; i < 1000; i++ {
			tt.Store(mem.Addr(0x40 + 8*tt.Index()))
		}
	}
	failing := func(tt *T) {
		tt.Load(0x80)
		panic("body failed")
	}
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run(Program{Phases: []Phase{
			{Name: "work", Bodies: []Body{busy, failing, busy}},
			{Name: "never", Bodies: []Body{busy}},
		}})
	}()
	bp, ok := got.(*BodyPanic)
	if !ok {
		t.Fatalf("Run panicked with %#v, want a *BodyPanic", got)
	}
	if bp.Value != "body failed" || bp.Error() != "body failed" {
		t.Errorf("re-raised value %v, want the body's own", bp.Value)
	}
	if !strings.Contains(string(bp.Stack), "TestBodyPanicReRaisedFromRun") {
		t.Errorf("re-raised stack does not show the panicking body:\n%s", bp.Stack)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed run, %d before", n, before)
	}
}
