package exec

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// benchMachine answers accesses with a small deterministic
// address-dependent latency. The variance keeps thread clocks diffusing
// past each other, so the engine's leader changes on almost every
// operation — the run-queue-heaviest regime, which is exactly what these
// benchmarks measure. (A real cache simulator would add its own large
// constant cost to every access and drown the run-queue signal.)
type benchMachine struct{ cores int }

func (m *benchMachine) Access(core int, addr mem.Addr, write bool, now uint64) uint32 {
	return 3 + uint32(addr>>2)%97
}
func (m *benchMachine) Cores() int { return m.cores }

// benchProgram builds one parallel phase of `threads` bodies, each
// issuing opsPerThread interleaved stores/loads over a private stripe
// plus short computes — per-thread streams long enough to amortize
// startup, with occasional long computes so far-future reinsertion is
// part of the measured mix.
func benchProgram(threads, opsPerThread int) Program {
	bodies := make([]Body, threads)
	for i := range bodies {
		base := mem.Addr(0x10000 + i*0x400)
		bodies[i] = func(t *T) {
			for j := 0; j < opsPerThread; j++ {
				t.Store(base + mem.Addr((j%64)*4))
				if j%7 == 0 {
					t.Load(base + mem.Addr((j%32)*8))
				}
				if j%251 == 250 {
					t.Compute(5000) // long sleep: far-future wakeup
				} else {
					t.Compute(j % 11)
				}
			}
		}
	}
	return Program{Name: "sched-bench", Phases: []Phase{ParallelPhase("p", bodies...)}}
}

// BenchmarkExecSched measures the engine's hot loop and run queue at
// increasing thread counts. The per-op simulated throughput lands in
// the simops/s metric.
func BenchmarkExecSched(b *testing.B) {
	const opsPerThread = 20000
	for _, threads := range []int{2, 8, 16, 32} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var ops uint64
			for i := 0; i < b.N; i++ {
				e := New(&benchMachine{cores: threads + 1}, DefaultConfig())
				res := e.Run(benchProgram(threads, opsPerThread))
				for _, th := range res.Threads {
					ops += th.MemAccesses
				}
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
		})
	}
}

// BenchmarkExecSchedTies is the worst case for leader churn: identical
// bodies with identical latencies keep every thread tied on vtime, so
// each operation changes the minimum. This pins the tie-heavy regime
// the equivalence suite exercises for correctness.
func BenchmarkExecSchedTies(b *testing.B) {
	const opsPerThread = 20000
	body := func(t *T) {
		for j := 0; j < opsPerThread; j++ {
			t.Store(0x40)
			t.Compute(3)
		}
	}
	for _, threads := range []int{8, 32} {
		bodies := make([]Body, threads)
		for i := range bodies {
			bodies[i] = body
		}
		prog := Program{Name: "ties", Phases: []Phase{ParallelPhase("p", bodies...)}}
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := New(&fixedMachine{cores: threads + 1, latency: 5}, DefaultConfig())
				e.Run(prog)
			}
		})
	}
}
