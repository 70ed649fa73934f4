package main

import (
	"fmt"
	"runtime"
	"time"

	cheetah "repro"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/pmu"
)

// The layer ladder runs the same inputs with one more layer added at
// each rung; the difference between adjacent rungs is that layer's
// cost:
//
//  1. exec.New over flatMachine, no probes (engine and body generation)
//  2. + cache.New(cache.ConfigFor(model))  (coherence simulator)
//  3. + a PMU with a no-op handler         (sampler)
//  4. + core.Profiler probes               (profiler, shadow memory)
//  5. + Report and RenderDetectionReport   (assessment and report)
const rungs = 5

// ladderInput is one input the ladder runs. next returns the system and
// program for one rung run: a fresh build for generated workloads, the
// same prepared replay for traces (replayed programs allocate nothing
// mid-run, so they rerun identically).
type ladderInput struct {
	name string
	pmu  pmu.Config
	next func() (*cheetah.System, exec.Program, error)
}

// rungRun is one rung run's measurements.
type rungRun struct {
	ns       int64
	mallocs  uint64
	accesses uint64
	cache    cache.Stats
	dirLines int
	pmu      pmu.Stats
	accepted uint64 // samples the profiler kept after region filtering
}

func runRung(rung int, sys *cheetah.System, prog exec.Program, cfg pmu.Config) rungRun {
	var out rungRun
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng := exec.DefaultConfig()
	start := time.Now()
	var sim *cache.Sim
	var res exec.Result
	switch rung {
	case 1:
		res = exec.New(flatMachine{cores: sys.Cores()}, eng).Run(prog)
	case 2:
		sim = cache.New(cache.ConfigFor(sys.Model()))
		res = exec.New(sim, eng).Run(prog)
	case 3:
		sim = cache.New(cache.ConfigFor(sys.Model()))
		p := pmu.New(cfg, pmu.HandlerFunc(func(mem.Access, uint64) {}))
		res = exec.New(sim, eng, p).Run(prog)
		out.pmu = p.Stats()
	default:
		sim = cache.New(cache.ConfigFor(sys.Model()))
		prof := sys.NewProfiler(cheetah.ProfileOptions{PMU: cfg})
		res = exec.New(sim, eng, prof.Probes()...).Run(prog)
		if rung == 5 {
			harness.RenderDetectionReport(prof.Report(), res, false, false)
		}
		out.pmu = prof.PMUStats()
		out.accepted = prof.Samples()
	}
	out.ns = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	out.mallocs = after.Mallocs - before.Mallocs
	out.accesses = res.Accesses()
	if sim != nil {
		out.cache = sim.Stats()
		out.dirLines = sim.DirLines()
	}
	return out
}

// runLadder runs every rung reps times over all inputs, interleaving the
// rungs so drift spreads evenly, and sets the per-layer metrics from the
// median total time of each rung. Each rung run is a span.
func runLadder(rc *runCtx, o *outcome, inputs []ladderInput, reps int) error {
	times := make([][]float64, rungs+1)
	var last [rungs + 1]rungRun // summed over inputs, from the last rep
	for rep := 0; rep < reps; rep++ {
		for rung := 1; rung <= rungs; rung++ {
			var total rungRun
			for _, in := range inputs {
				sys, prog, err := in.next()
				if err != nil {
					return fmt.Errorf("ladder input %s: %v", in.name, err)
				}
				id := rc.tr.begin(0, fmt.Sprintf("ladder.rung%d", rung), in.name)
				r := runRung(rung, sys, prog, in.pmu)
				rc.tr.end(id)
				total.ns += r.ns
				total.mallocs += r.mallocs
				total.accesses += r.accesses
				total.dirLines += r.dirLines
				total.accepted += r.accepted
				total.cache.Accesses += r.cache.Accesses
				total.cache.Invalidations += r.cache.Invalidations
				total.cache.L1Hits += r.cache.L1Hits
				total.pmu.Delivered += r.pmu.Delivered
				total.pmu.Untagged += r.pmu.Untagged
			}
			times[rung] = append(times[rung], float64(total.ns))
			last[rung] = total
		}
	}
	med := make([]int64, rungs+1)
	for rung := 1; rung <= rungs; rung++ {
		med[rung] = int64(median(times[rung]))
	}
	var cost [rungs + 1]int64
	cost[1] = med[1]
	var sumCost int64 = cost[1]
	for rung := 2; rung <= rungs; rung++ {
		cost[rung] = med[rung] - med[rung-1]
		sumCost += cost[rung]
	}
	if sumCost != med[rungs] {
		return fmt.Errorf("ladder: layer costs sum to %d ns, top rung is %d ns", sumCost, med[rungs])
	}
	acc := float64(last[1].accesses)
	delivered := float64(last[4].pmu.Delivered)
	if acc == 0 || delivered == 0 {
		return fmt.Errorf("ladder: inputs made %v accesses and %v samples", acc, delivered)
	}
	o.set("exec.ns_per_access", float64(cost[1])/acc, "ns")
	o.set("exec.allocs_per_access", float64(last[1].mallocs)/acc, "count")
	o.set("cache.ns_per_access", float64(cost[2])/acc, "ns")
	o.set("cache.invalidations", float64(last[2].cache.Invalidations), "count")
	o.set("cache.l1_hit_ratio", float64(last[2].cache.L1Hits)/float64(last[2].cache.Accesses), "ratio")
	o.set("cache.dir_lines", float64(last[2].dirLines), "count")
	o.set("pmu.ns_per_access", float64(cost[3])/acc, "ns")
	o.set("pmu.samples", float64(last[3].pmu.Delivered), "count")
	o.set("pmu.tag_yield", float64(last[3].pmu.Delivered)/float64(last[3].pmu.Delivered+last[3].pmu.Untagged), "ratio")
	o.set("core.ns_per_sample", float64(cost[4])/delivered, "ns")
	o.set("core.allocs_per_sample", (float64(last[4].mallocs)-float64(last[3].mallocs))/delivered, "count")
	o.set("core.samples", float64(last[4].accepted), "count")
	o.set("core.drop_ratio", (delivered-float64(last[4].accepted))/delivered, "ratio")
	o.set("core.report_ms", float64(cost[5])/1e6, "ms")
	o.set("ladder.top_ms", float64(med[rungs])/1e6, "ms")
	fmt.Fprintf(rc.log, "perfbench: ladder medians (ms): engine %.1f  +cache %.1f  +pmu %.1f  +core %.1f  +report %.1f = %.1f\n",
		float64(cost[1])/1e6, float64(cost[2])/1e6, float64(cost[3])/1e6, float64(cost[4])/1e6, float64(cost[5])/1e6, float64(med[rungs])/1e6)
	return nil
}
