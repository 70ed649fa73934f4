// The report half of the engine equivalence suites: randomized programs
// profiled end to end — heap allocation, PMU sampling, detection, word
// classification, EQ(1)–EQ(4) assessment, formatting — must print
// byte-identical reports under the batched timeslice runner and under
// its per-op reference loop. The engine half (per-thread clock
// trajectories and access streams) lives in internal/exec; this level
// catches anything the engine loop could perturb downstream of it.
package cheetah_test

import (
	"fmt"
	"testing"

	cheetah "repro"
	"repro/internal/exec"
	"repro/internal/exec/progen"
	"repro/internal/harness"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/pmu"
)

// reportEquivSeed pins the randomized report suite; failures reproduce
// from (seed, case index) alone.
const reportEquivSeed = 0xBEEF_FEED

// reportEquivCases: ≥200 randomized programs in -short (the CI push
// gate), ≥2000 in the nightly paper-scale run.
func reportEquivCases() int {
	if testing.Short() {
		return 200
	}
	return 2000
}

// profiledReportUnder builds a fresh system with the given engine loop
// (batched or the unbatched reference), allocates the same heap objects
// and globals, generates case i, and returns every byte the profiler
// would show a user: the formatted report, per-instance word detail,
// and the run's timing line.
func profiledReportUnder(unbatched bool, i int, p pmu.Config) string {
	sys := cheetah.New(cheetah.Config{Cores: 8, Engine: exec.Config{Unbatched: unbatched}})
	objA := sys.Heap().Malloc(0, 256, heap.Stack(heap.Frame{File: "equiv.c", Line: 10, Func: "alloc_a"}))
	objB := sys.Heap().Malloc(1, 512, heap.Stack(heap.Frame{File: "equiv.c", Line: 20, Func: "alloc_b"}))
	glob := sys.Globals().Define("equiv_global", 128)

	prog := progen.Generate(progen.Config{
		Seed:       reportEquivSeed,
		Case:       i,
		Addrs:      []mem.Addr{objA, objB, glob},
		MaxThreads: 12,
	})
	rep, res := sys.Profile(prog, cheetah.ProfileOptions{PMU: p})

	out := rep.Format()
	for j := range rep.Instances {
		out += rep.Instances[j].FormatWords()
	}
	out += fmt.Sprintf("runtime %d cycles across %d phases, %d threads\n",
		res.TotalCycles, len(res.Phases), len(res.Threads))
	return out
}

// TestBatchedUnbatchedReportEquivalence: the batched timeslice runner
// and its per-op reference loop print byte-identical detection reports
// for every randomized program. This is the end-to-end half of the
// batched-engine proof — PMU sampling, detection, word classification,
// assessment and formatting all sit downstream of the engine hot path
// this suite pins. Cases grow from trivially small, so a first failing
// index is near-minimal.
func TestBatchedUnbatchedReportEquivalence(t *testing.T) {
	t.Parallel()
	p := harness.DetectionPMU() // dense sampling: tiny programs still produce samples
	for i := 0; i < reportEquivCases(); i++ {
		ref := profiledReportUnder(false, i, p)
		if out := profiledReportUnder(true, i, p); out != ref {
			t.Fatalf("case %d (seed %#x): unbatched report diverges from batched\n--- batched ---\n%s\n--- unbatched ---\n%s",
				i, reportEquivSeed, ref, out)
		}
	}
}

// paceCounter is a probe that counts AccessPace queries. Only the batched
// loop asks probes for their pace, so the count tells which engine loop
// ran.
type paceCounter struct {
	exec.BaseProbe
	calls int
}

func (p *paceCounter) AccessPace(mem.ThreadID) (uint64, uint64) {
	p.calls++
	return ^uint64(0), ^uint64(0)
}

// TestNewKeepsUnbatched: cheetah.New fills a zero engine config with the
// defaults but must keep Config.Engine.Unbatched, or the report suite
// above compares the batched loop with itself.
func TestNewKeepsUnbatched(t *testing.T) {
	body := func(tt *cheetah.T) {
		for i := 0; i < 32; i++ {
			tt.Store(mem.Addr(0x1000 + 8*tt.Index()))
		}
	}
	prog := cheetah.Program{Name: "pace", Phases: []cheetah.Phase{cheetah.ParallelPhase("p", body, body)}}
	for _, unbatched := range []bool{false, true} {
		sys := cheetah.New(cheetah.Config{Cores: 8, Engine: exec.Config{Unbatched: unbatched}})
		probe := &paceCounter{}
		sys.RunWith(prog, probe)
		if ranBatched := probe.calls > 0; ranBatched == unbatched {
			t.Errorf("Engine.Unbatched=%v: %d AccessPace calls (only the batched loop makes them)",
				unbatched, probe.calls)
		}
	}
}
