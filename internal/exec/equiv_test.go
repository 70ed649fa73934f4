package exec_test

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/exec/progen"
	"repro/internal/mem"
	"repro/internal/pmu"
)

// equivSeed pins the randomized suite: failures reproduce from
// (equivSeed, case index) alone, and small indices are small programs.
const equivSeed = 0x5EED_CA1E

// equivCases returns the suite size: at least 200 randomized programs in
// -short (CI's push gate), at least 2000 in the nightly full run.
func equivCases() int {
	if testing.Short() {
		return 200
	}
	return 2000
}

// clockRecorder captures the complete observable execution: every access
// in global simulation order (with its per-thread virtual timestamp) and
// every thread's lifetime — the per-thread clock trajectory.
type clockRecorder struct {
	exec.BaseProbe
	accesses []mem.Access
	threads  []exec.ThreadInfo
}

func (r *clockRecorder) Access(a mem.Access, instrs uint64) uint64 {
	r.accesses = append(r.accesses, a)
	return 0
}

func (r *clockRecorder) ThreadEnd(th exec.ThreadInfo) { r.threads = append(r.threads, th) }

// equivEngineConfig is the engine configuration every suite run shares,
// apart from the engine loop under test.
func equivEngineConfig(unbatched bool) exec.Config {
	cfg := exec.DefaultConfig()
	cfg.OpBuffer = 64 // small buffers exercise refill boundaries
	cfg.Unbatched = unbatched
	return cfg
}

// runWith executes prog on a fresh 8-core cache simulator under cfg,
// recording the complete observable execution.
func runWith(cfg exec.Config, prog exec.Program, probes ...exec.Probe) (exec.Result, *clockRecorder) {
	sim := cache.New(cache.DefaultConfig(8))
	rec := &clockRecorder{}
	e := exec.New(sim, cfg, append([]exec.Probe{rec}, probes...)...)
	return e.Run(prog), rec
}

// runBatched executes prog with the batched runner (the production
// configuration).
func runBatched(prog exec.Program) (exec.Result, *clockRecorder) {
	return runWith(equivEngineConfig(false), prog)
}

// mustMatch fails the case unless two runs produced the identical
// execution: same Result (total cycles, phase boundaries, per-thread
// start/end/instruction counts), same thread lifetimes, and the same
// access stream in the same global order.
func mustMatch(t *testing.T, i int, refName, gotName string,
	refRes, gotRes exec.Result, refRec, gotRec *clockRecorder) {
	t.Helper()
	if !reflect.DeepEqual(refRes, gotRes) {
		t.Fatalf("case %d: Result diverges\n%s: %+v\n%s: %+v",
			i, refName, refRes, gotName, gotRes)
	}
	if !reflect.DeepEqual(refRec.threads, gotRec.threads) {
		t.Fatalf("case %d: thread lifetimes diverge\n%s: %+v\n%s: %+v",
			i, refName, refRec.threads, gotName, gotRec.threads)
	}
	if len(refRec.accesses) != len(gotRec.accesses) {
		t.Fatalf("case %d: %d accesses under %s, %d under %s",
			i, len(refRec.accesses), refName, len(gotRec.accesses), gotName)
	}
	for j := range refRec.accesses {
		if refRec.accesses[j] != gotRec.accesses[j] {
			t.Fatalf("case %d: access %d diverges\n%s: %+v\n%s: %+v",
				i, j, refName, refRec.accesses[j], gotName, gotRec.accesses[j])
		}
	}
}

// equivPMU returns a fresh sampling probe for the paced half of the
// batched/unbatched suite: an AccessPacer makes the batched runner's
// compute run-ahead earn its keep (probe calls must happen at exactly
// the paced accesses), so pacing is where a stop-rule bug would hide.
// The prime period and jitter avoid lockstep with generated loop bodies.
func equivPMU() *pmu.PMU {
	return pmu.New(pmu.Config{Period: 97, Jitter: 13, HandlerCycles: 40, SetupCycles: 300},
		pmu.HandlerFunc(func(mem.Access, uint64) {}))
}

// TestBatchedUnbatchedEquivalence proves the batched timeslice runner on
// the sorted run queue against the per-op reference loop: every
// randomized program must produce the identical execution batched and
// unbatched, both free-running and paced by a sampling PMU. The
// unbatched loop (Config.Unbatched) picks each op's thread by a linear
// scan, so it is an oracle for the run queue as well as for runSlice.
// ≥200 cases in -short, ≥2000 nightly; cases grow from trivially small,
// so the first failing index is already near-minimal (reproduce from
// equivSeed and the index).
func TestBatchedUnbatchedEquivalence(t *testing.T) {
	addrs := []mem.Addr{0x1000, 0x1040, 0x2040, 0x8000}
	for i := 0; i < equivCases(); i++ {
		cfg := progen.Config{Seed: equivSeed + 2, Case: i, Addrs: addrs, MaxThreads: 12}
		refRes, refRec := runBatched(progen.Generate(cfg))
		res, rec := runWith(equivEngineConfig(true), progen.Generate(cfg))
		mustMatch(t, i, "batched", "unbatched", refRes, res, refRec, rec)

		refRes, refRec = runWith(equivEngineConfig(false), progen.Generate(cfg), equivPMU())
		res, rec = runWith(equivEngineConfig(true), progen.Generate(cfg), equivPMU())
		mustMatch(t, i, "paced batched", "paced unbatched", refRes, res, refRec, rec)
	}
}

// TestFlushedUnflushedEquivalence proves T.Flush invisible to the
// schedule: every randomized program whose bodies flush their buffers at
// seeded pseudo-random points must produce the identical execution as
// its unflushed twin, both free-running and paced by a sampling PMU.
// Streamed trace replay flushes whenever a body waits on its phase
// loader, so this is what keeps its reports exact. ≥200 cases in
// -short, ≥2000 nightly.
func TestFlushedUnflushedEquivalence(t *testing.T) {
	addrs := []mem.Addr{0x1000, 0x1040, 0x2040, 0x8000}
	for i := 0; i < equivCases(); i++ {
		cfg := progen.Config{Seed: equivSeed + 3, Case: i, Addrs: addrs, MaxThreads: 12}
		flushed := cfg
		flushed.Flushes = true
		refRes, refRec := runBatched(progen.Generate(cfg))
		res, rec := runBatched(progen.Generate(flushed))
		mustMatch(t, i, "unflushed", "flushed", refRes, res, refRec, rec)

		batched := equivEngineConfig(false)
		refRes, refRec = runWith(batched, progen.Generate(cfg), equivPMU())
		res, rec = runWith(batched, progen.Generate(flushed), equivPMU())
		mustMatch(t, i, "paced unflushed", "paced flushed", refRes, res, refRec, rec)
	}
}

// TestSchedulerEquivalenceSelfCheck guards the suites themselves: a run
// must be deterministic against a re-run on the same engine loop,
// otherwise "batched == unbatched" could pass vacuously on noise.
func TestSchedulerEquivalenceSelfCheck(t *testing.T) {
	addrs := []mem.Addr{0x1000, 0x2040}
	for i := 0; i < 25; i++ {
		cfg := progen.Config{Seed: equivSeed + 1, Case: i, Addrs: addrs}
		for _, unbatched := range []bool{false, true} {
			a, ra := runWith(equivEngineConfig(unbatched), progen.Generate(cfg))
			b, rb := runWith(equivEngineConfig(unbatched), progen.Generate(cfg))
			if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ra.accesses, rb.accesses) {
				t.Fatalf("case %d: unbatched=%v engine not deterministic across reruns", i, unbatched)
			}
		}
	}
}
