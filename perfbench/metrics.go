package main

import (
	"time"
)

// endToEnd lists the metrics every timed run (-trace 0) prints, with
// their units. BENCHMARK.json declares the same list.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"accesses_per_s", "1/s"},
	{"samples_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
}

// perLayer lists the metrics every traced run (-trace 1) prints. A
// metric of a layer the workload leaves idle reads 0.
var perLayer = []struct{ name, unit string }{
	{"trace.encode_ns_per_access", "ns"},
	{"trace.decode_ns_per_access", "ns"},
	{"trace.bytes_per_access", "B"},
	{"trace.window_loads", "count"},
	{"trace.max_window_ops", "count"},
	{"trace.peak_rss_mb", "MB"},
	{"exec.ns_per_access", "ns"},
	{"exec.allocs_per_access", "count"},
	{"cache.ns_per_access", "ns"},
	{"cache.invalidations", "count"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.dir_lines", "count"},
	{"pmu.ns_per_access", "ns"},
	{"pmu.samples", "count"},
	{"pmu.tag_yield", "ratio"},
	{"core.ns_per_sample", "ns"},
	{"core.allocs_per_sample", "count"},
	{"core.samples", "count"},
	{"core.drop_ratio", "ratio"},
	{"core.report_ms", "ms"},
	{"ladder.top_ms", "ms"},
	{"harness.cell_s.native", "s"},
	{"harness.cell_s.profiled", "s"},
	{"harness.cell_s.predator", "s"},
	{"harness.cell_s.sheriff", "s"},
	{"harness.cell_s.rule", "s"},
	{"harness.cell_max_s", "s"},
	{"harness.busy_ratio", "ratio"},
	{"harness.cells", "count"},
	{"gateway.submit_ms_p50", "ms"},
	{"gateway.wait_ms_p50.hit", "ms"},
	{"gateway.wait_ms_p50.miss", "ms"},
	{"gateway.report_ms_p50", "ms"},
	{"gateway.cache_hit_ratio", "ratio"},
	{"gateway.rejected", "count"},
	{"gateway.event_resyncs", "count"},
	{"sweep.cells_executed", "count"},
	{"sweep.cells_cached", "count"},
	{"sweep.cells_deduped", "count"},
	{"bench.trace_overhead", "ratio"},
}

// fillPerLayer gives every per-layer metric the workload did not measure
// the value 0, so each traced run prints the full list.
func fillPerLayer(o *outcome) {
	for _, m := range perLayer {
		if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, 0, m.unit)
		}
	}
}

// minOps is the fewest operations a timed run measures: enough for ten
// samples beyond the reported p90.
var minOps = minSamplesFor(0.9)

// e2e accumulates one timed run's end-to-end figures.
type e2e struct {
	start    time.Time // when the first timed pass began
	setups   []float64 // seconds per set-up repetition
	passes   []float64 // seconds per timed pass
	ops      []float64 // seconds per operation
	accesses float64   // simulated accesses behind the timed passes
	samples  float64   // PMU samples behind the timed passes
}

// more reports whether the timed loop needs another pass: until the run
// has measured for its allotted seconds, at least minPasses passes and
// at least minOps operations.
func (e *e2e) more(seconds float64, minPasses int) bool {
	if e.start.IsZero() {
		e.start = time.Now()
		return true
	}
	return time.Since(e.start).Seconds() < seconds || len(e.passes) < minPasses || len(e.ops) < minOps
}

// emit sets every end-to-end metric.
func (e *e2e) emit(o *outcome) error {
	p50, err := percentile(e.ops, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(e.ops, 0.9)
	if err != nil {
		return err
	}
	busy := sum(e.passes)
	o.set("setup_s", median(e.setups), "s")
	o.set("wall_s", median(e.passes), "s")
	o.set("accesses_per_s", e.accesses/busy, "1/s")
	o.set("samples_per_s", e.samples/busy, "1/s")
	o.set("job_p50_s", p50, "s")
	o.set("job_p90_s", p90, "s")
	return nil
}

// overheadPasses is how many untraced and traced passes, interleaved,
// a traced run compares for bench.trace_overhead.
const overheadPasses = 5

// overhead returns traced ÷ untraced − 1 over the medians of two sets of
// pass times on the same inputs.
func overhead(untraced, traced []float64) float64 {
	return median(traced)/median(untraced) - 1
}
