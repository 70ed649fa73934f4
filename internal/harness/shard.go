package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/trace"
	"repro/internal/workload"
)

// Phase-sharded trace replay: one giant trace split into contiguous
// phase ranges, each range an ordinary `trace:<path>@lo-hi` cell. Every
// shard replays its range on a fresh system (ProgramRange skips the
// out-of-range phases entirely), so shards are independent,
// deterministic, and executable by any mix of local goroutines or sweep
// worker processes; FormatShardedReplay stitches the reports back in
// phase order. Because each cell is deterministic, the merged output is
// byte-identical however the shards were scheduled — proven for 1/2/4
// workers and against worker-kill requeues by internal/sweep's tests.

// TraceShard is one planned phase range of a sharded trace replay.
type TraceShard struct {
	// Cell is the runnable cell: a profiled `trace:<path>@<lo>-<hi>`
	// pseudo-workload.
	Cell Cell
	// Lo and Hi are the inclusive phase range.
	Lo, Hi int
	// Accesses is the range's indexed access count, the planner's load
	// estimate.
	Accesses uint64
}

// TraceShardPlan splits the indexed trace behind an un-ranged
// `trace:<path>` workload name into at most shards contiguous phase
// ranges of roughly equal access counts. Fewer shards come back when
// the trace has fewer phases. The trace must be indexed: planning reads
// only the index.
func TraceShardPlan(name string, shards int, c Config) ([]TraceShard, error) {
	if !workload.IsTraceName(name) {
		return nil, fmt.Errorf("harness: %q is not a trace workload", name)
	}
	path := workload.TracePath(name)
	if path != strings.TrimPrefix(name, workload.TracePrefix) {
		return nil, fmt.Errorf("harness: cannot shard already-ranged trace workload %q", name)
	}
	if shards < 1 {
		return nil, fmt.Errorf("harness: shard count %d out of range", shards)
	}
	sr, err := trace.OpenStream(path)
	if err != nil {
		return nil, err
	}
	phases := sr.Phases()
	if len(phases) == 0 {
		return nil, fmt.Errorf("harness: trace %s has no phases to shard", path)
	}
	if shards > len(phases) {
		shards = len(phases)
	}
	// Cut at cumulative-weight quantiles. The +1 per phase keeps empty
	// phases from collapsing ranges to nothing and guarantees the total
	// weight is positive, so exactly `shards` non-empty ranges come out.
	var total uint64
	for _, ph := range phases {
		total += ph.Accesses + 1
	}
	cfg := c.withDefaults()
	hash := TraceContentHash(path)
	var plan []TraceShard
	var cum uint64
	start := 0
	for i, ph := range phases {
		cum += ph.Accesses + 1
		// Close the current shard once cumulative weight crosses its
		// quantile — or when the remaining shards need every remaining
		// phase. The final shard closes only at the last phase.
		building := shards - len(plan) // shards still to emit, incl. this one
		phasesLeft := len(phases) - i - 1
		boundary := uint64(len(plan)+1) * total / uint64(shards)
		cut := i == len(phases)-1 ||
			(building > 1 && (cum >= boundary || phasesLeft < building))
		if cut {
			lo, hi := phases[start].Index, ph.Index
			var acc uint64
			for _, p := range phases[start : i+1] {
				acc += p.Accesses
			}
			plan = append(plan, TraceShard{
				Cell: Cell{
					Kind:      KindProfiled,
					Workload:  fmt.Sprintf("%s%s@%d-%d", workload.TracePrefix, path, lo, hi),
					Threads:   cfg.Threads,
					Cores:     cfg.Cores,
					Scale:     cfg.Scale,
					PMU:       cfg.PMU,
					Machine:   canonMachine(cfg.Machine),
					TraceHash: hash,
				},
				Lo: lo, Hi: hi, Accesses: acc,
			})
			start = i + 1
		}
	}
	return plan, nil
}

// RunShardsLocal executes a shard plan in this process with up to
// workers concurrent goroutines, returning results keyed by cell ID —
// the same shape sweep.RunCells produces, so callers merge either
// source identically.
func RunShardsLocal(plan []TraceShard, workers int) (map[string]CellResult, error) {
	if workers < 1 {
		workers = 1
	}
	results := make(map[string]CellResult, len(plan))
	errs := make([]error, len(plan))
	var mu sync.Mutex
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range plan {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := RunCell(plan[i].Cell)
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			results[plan[i].Cell.ID()] = res
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// FormatShardedReplay merges per-shard results into the canonical
// sharded report: each shard's detection report and runtime in plan
// (phase) order. The format is deliberately a pure function of the
// plan and the shard payloads, so any execution order or worker count
// yields identical bytes.
func FormatShardedReplay(plan []TraceShard, results map[string]CellResult) (string, error) {
	ordered := append([]TraceShard(nil), plan...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Lo < ordered[j].Lo })
	var b strings.Builder
	for _, sh := range ordered {
		res, ok := results[sh.Cell.ID()]
		if !ok {
			return "", fmt.Errorf("harness: no result for shard %d-%d (%s)", sh.Lo, sh.Hi, sh.Cell.ID())
		}
		if res.Report == nil {
			return "", fmt.Errorf("harness: shard %d-%d result has no report", sh.Lo, sh.Hi)
		}
		fmt.Fprintf(&b, "== shard phases %d-%d (%d accesses) ==\n", sh.Lo, sh.Hi, sh.Accesses)
		b.WriteString(res.Report.Format())
		fmt.Fprintf(&b, "runtime %d cycles across %d phases\n\n", res.Result.TotalCycles, len(res.Result.Phases))
	}
	return b.String(), nil
}
