package harness

import (
	"encoding/json"
	"strings"
	"sync"

	"repro/internal/core"
)

// Results bundles every table and figure of the paper's evaluation, as
// produced by one RunAll sweep.
type Results struct {
	Fig1    []Fig1Row
	Fig4    []Fig4Row
	Fig5App string
	Fig5    *core.Report
	// Fig5Text is the formatted case-study report, including the
	// word-level access breakdown of the top instance.
	Fig5Text string
	Fig7     []Fig7Row
	Table1   []Table1Row
	Compare  []CompareRow
	Periods  []PeriodRow
	Rules    []RuleRow
}

// RunAll regenerates the full evaluation: Figure 1, Figure 4, Figure 5
// (linear_regression), Figure 7, Table 1, the tool comparison, and both
// ablations. The experiments share one runner, so identical cells are
// executed once and all cells from all experiments compete for the same
// c.Workers pool slots.
func RunAll(c Config) *Results { return RunAllWith(runnerFor(c), c) }

// RunAllWith is RunAll on a caller-supplied runner, letting callers reuse
// a runner's memoized cells across sweeps or read its statistics
// afterwards (cmd/fsbench records CellsRun in the bench trajectory).
func RunAllWith(r *Runner, c Config) *Results {
	c = c.withDefaults()
	res := &Results{Fig5App: "linear_regression"}
	var wg sync.WaitGroup
	launch := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	// Experiments submit cells and wait; the pool bounds actual work.
	launch(func() { res.Fig1 = r.figure1(c) })
	launch(func() { res.Fig4 = r.figure4(c) })
	launch(func() { res.Fig5, res.Fig5Text = r.figure5(res.Fig5App, c) })
	launch(func() { res.Fig7 = r.figure7(c) })
	launch(func() { res.Table1 = r.table1(c) })
	launch(func() { res.Compare = r.compare(c) })
	launch(func() { res.Periods = r.periodAblation(c) })
	launch(func() { res.Rules = r.ruleAblation(c) })
	wg.Wait()
	return res
}

// Format renders every experiment in the fixed order cmd/fsbench prints,
// separated by blank lines. The output is deterministic: it must be
// byte-identical across worker counts.
func (rs *Results) Format() string {
	sections := []string{
		FormatFigure1(rs.Fig1),
		FormatFigure4(rs.Fig4),
		"Figure 5: Cheetah report for " + rs.Fig5App + "\n\n" + rs.Fig5Text,
		FormatFigure7(rs.Fig7),
		FormatTable1(rs.Table1),
		FormatCompare(rs.Compare),
		FormatPeriodAblation(rs.Periods),
		FormatRuleAblation(rs.Rules),
	}
	return strings.Join(sections, "\n")
}

// Metrics extracts the headline quantity of each experiment — the numbers
// the paper reports in prose — keyed by a stable name, for the
// machine-readable bench trajectory.
func (rs *Results) Metrics() map[string]float64 {
	m := make(map[string]float64)
	if n := len(rs.Fig1); n > 0 {
		m["fig1_slowdown_8t"] = rs.Fig1[n-1].Slowdown()
	}
	if len(rs.Fig4) > 0 {
		avg, avgEx := AverageOverhead(rs.Fig4)
		m["fig4_avg_overhead"] = avg
		m["fig4_avg_overhead_excl_outliers"] = avgEx
	}
	if rs.Fig5 != nil && len(rs.Fig5.Instances) > 0 {
		m["fig5_predicted_improvement"] = rs.Fig5.Instances[0].Assessment.Improvement
	}
	worst := 0.0
	for _, r := range rs.Fig7 {
		if imp := r.Improvement(); imp > worst {
			worst = imp
		}
	}
	if len(rs.Fig7) > 0 {
		m["fig7_worst_missed_impact"] = worst
	}
	worst = 0
	for _, r := range rs.Table1 {
		if d := r.AbsDiff(); d > worst {
			worst = d
		}
	}
	if len(rs.Table1) > 0 {
		m["table1_worst_absdiff"] = worst
	}
	for _, r := range rs.Compare {
		if r.App == "linear_regression" {
			m["compare_predator_overhead_lr"] = r.PredatorOverhead
			m["compare_cheetah_overhead_lr"] = r.CheetahOverhead
		}
	}
	maxDetecting := 0.0
	for _, r := range rs.Periods {
		if r.Detected && float64(r.Period) > maxDetecting {
			maxDetecting = float64(r.Period)
		}
	}
	if len(rs.Periods) > 0 {
		m["ablation_max_detecting_period"] = maxDetecting
	}
	for _, r := range rs.Rules {
		if r.App == "linear_regression" && r.GroundTruth > 0 {
			m["ablation_two_entry_over_truth_lr"] = float64(r.TwoEntry) / float64(r.GroundTruth)
		}
	}
	return m
}

// BenchEntry is the trajectory record cmd/fsbench writes to
// BENCH_harness.json: enough to track both result drift (Metrics) and
// performance drift (WallSeconds, CellsRun) across PRs.
type BenchEntry struct {
	// Schema versions the record layout.
	Schema string `json:"schema"`
	// GitCommit is the source revision the sweep ran at ("unknown"
	// outside a git checkout), keying each trajectory point to a PR.
	GitCommit string `json:"git_commit"`
	// Timestamp is the sweep's completion time in RFC3339 UTC, so the
	// trajectory is plottable on a real time axis.
	Timestamp string `json:"timestamp"`
	// Workers is the pool bound the sweep ran with.
	Workers int `json:"workers"`
	// CellsRun counts distinct executed cells (shared cells count once).
	CellsRun int `json:"cells_run"`
	// WallSeconds is the end-to-end RunAll time.
	WallSeconds float64 `json:"wall_seconds"`
	// Scale and Threads record the sweep configuration.
	Scale   float64 `json:"scale"`
	Threads int     `json:"threads"`
	// Machine is the machine-model preset the sweep simulated
	// ("opteron48" when unset). It changes the results, not just the
	// wall clock, so trajectory comparisons must group by it.
	Machine string `json:"machine"`
	// TraceFormat is the binary trace framing version the build writes
	// (trace.BinaryVersion), so trajectory entries pin which format
	// recorded/imported traces in that revision's artifacts use.
	TraceFormat int `json:"trace_format"`
	// Accesses is the total simulated memory accesses behind the sweep's
	// results. The count is summed from the per-thread records every cell
	// result carries, so it is complete regardless of where the cells ran:
	// in this process, in worker processes, or in an earlier sweep whose
	// results the cache served.
	Accesses uint64 `json:"accesses"`
	// AccessesPerSec is the sweep's simulation throughput: Accesses
	// divided by wall-clock time. On a cold sweep this measures the
	// engine (the CI regression gate runs it cold); on a warm re-sweep it
	// measures cache speedup instead, since the accesses behind cached
	// results were simulated earlier.
	AccessesPerSec float64 `json:"accesses_per_sec"`
	// Metrics holds each experiment's headline quantity.
	Metrics map[string]float64 `json:"metrics"`
}

// BenchSchema is the current BenchEntry schema identifier; v2 added the
// git_commit and timestamp stamps, v3 the engine scheduler, v4 the
// binary trace framing version, v5 the trace replay mode, v6 the
// accesses/sec throughput stamp, v7 the raw access count (aggregated
// across worker processes and cache hits, where v6 stamped 0) and the
// batched engine's throughput baseline for the CI regression gate, v8
// the machine-model preset the sweep simulated, and v9 dropped the
// scheduler and replay mode stamps (one run queue and one trace-load
// rule remain).
const BenchSchema = "cheetah-bench/v9"

// MarshalIndent renders the entry as indented JSON with a trailing
// newline, the on-disk format of BENCH_harness.json.
func (e BenchEntry) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
