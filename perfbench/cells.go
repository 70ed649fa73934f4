package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
)

// cellKinds are the harness cell kinds, the five ways the evaluation
// runs a program: natively, under Cheetah, under the Predator-style and
// Sheriff-style baselines, and fully traced for the rule ablation.
var cellKinds = []string{harness.KindNative, harness.KindProfiled, harness.KindPredator, harness.KindSheriff, harness.KindRule}

// cellInputs is how many dense_detect inputs the harness cells run on:
// one cell of every kind for each.
const cellInputs = 3

// harnessCellMetrics runs one harness cell of every kind on the first
// cellInputs inputs with harness.RunCell on maxProcs workers, as a sweep
// runs its cells, and sets the harness and baseline per-layer metrics
// from the cell spans: seconds per kind, the longest cell, and the pool's
// busy ratio (Σ cell time ÷ (wall × workers)).
func harnessCellMetrics(rc *runCtx, o *outcome, ins []input) error {
	var cells []harness.Cell
	for _, in := range ins[:min(cellInputs, len(ins))] {
		for _, kind := range cellKinds {
			c := harness.Cell{Kind: kind, Workload: in.Workload, Threads: in.Threads, Cores: 48, Scale: in.Scale}
			if kind == harness.KindProfiled {
				c.PMU = harness.DetectionPMU()
			}
			cells = append(cells, c)
		}
	}
	errs := make([]error, len(cells))
	pid := rc.tr.begin(0, "harness.cells", "")
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxProcs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				id := rc.tr.begin(pid, "cell."+cells[i].Kind, cells[i].ID())
				_, errs[i] = harness.RunCell(cells[i])
				rc.tr.end(id)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	rc.tr.end(pid)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cell %s: %v", cells[i].ID(), err)
		}
	}

	byKind := map[string]float64{}
	var busy, longest float64
	for _, c := range rc.tr.children(pid) {
		if kind, ok := strings.CutPrefix(c.Name, "cell."); ok {
			byKind[kind] += c.seconds()
			busy += c.seconds()
			longest = max(longest, c.seconds())
		}
	}
	for _, k := range cellKinds {
		o.set("harness.cell_s."+k, byKind[k], "s")
	}
	o.set("harness.cell_max_s", longest, "s")
	o.set("harness.busy_ratio", busy/(wall*maxProcs), "ratio")
	o.set("harness.cells", float64(len(cells)), "count")
	return nil
}
