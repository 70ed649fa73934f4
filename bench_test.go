// Benchmarks regenerating the paper's evaluation, one per table and
// figure (§4). Each benchmark runs the corresponding harness experiment
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's results in one sweep. The benchmarks run at a
// reduced scale to stay fast; `go run ./cmd/fsbench` regenerates the
// full-scale tables.
package cheetah_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/harness"
	"repro/internal/workload"
)

// batchGC applies cmd/fsbench's batch-job GC setting for the duration of
// a benchmark, so sweep-level numbers here match what the tool measures.
func batchGC(b *testing.B) {
	old := debug.SetGCPercent(400)
	b.Cleanup(func() { debug.SetGCPercent(old) })
}

// benchConfig is the reduced-scale configuration for benchmarks.
// Workers -1 selects a private full-width runner per call: benchmarks
// must re-execute their cells each iteration rather than hit the
// package-level memoizing runner.
func benchConfig() harness.Config {
	return harness.Config{Scale: 0.25, Threads: 16, Workers: -1}
}

// BenchmarkFigure1 regenerates the motivation microbenchmark: reality vs
// linear-speedup expectation at 8 threads (the paper reports ~13x).
func BenchmarkFigure1(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		rows := harness.Figure1(benchConfig())
		slowdown = rows[len(rows)-1].Slowdown()
	}
	b.ReportMetric(slowdown, "x-slowdown-at-8-threads")
}

// BenchmarkFigure4 regenerates the overhead study over all 17
// applications (the paper reports ~7% average, kmeans and x264 >20%).
func BenchmarkFigure4(b *testing.B) {
	var avg, avgEx, worst float64
	for i := 0; i < b.N; i++ {
		rows := harness.Figure4(benchConfig())
		avg, avgEx = harness.AverageOverhead(rows)
		worst = 0
		for _, r := range rows {
			if o := r.Overhead(); o > worst {
				worst = o
			}
		}
	}
	b.ReportMetric(avg*100, "%-overhead-average")
	b.ReportMetric(avgEx*100, "%-overhead-excl-outliers")
	b.ReportMetric(worst*100, "%-overhead-worst")
}

// BenchmarkFigure5 regenerates the linear_regression case-study report
// and its predicted improvement (the paper's report shows 5.76x at 16
// threads on its hardware).
func BenchmarkFigure5(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		rep, _ := harness.Figure5("linear_regression", harness.Config{Scale: 1, Threads: 16, Workers: -1})
		if len(rep.Instances) == 0 {
			b.Fatal("case-study instance not detected")
		}
		improvement = rep.Instances[0].Assessment.Improvement
	}
	b.ReportMetric(improvement, "x-predicted-improvement")
}

// BenchmarkFigure7 regenerates the missed-instances study: the false
// sharing Cheetah misses has negligible real impact (paper: <0.2%).
func BenchmarkFigure7(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, r := range harness.Figure7(benchConfig()) {
			if imp := r.Improvement(); imp > worst {
				worst = imp
			}
			if r.CheetahReports {
				b.Fatalf("%s: Cheetah reported an instance it should miss", r.App)
			}
		}
	}
	b.ReportMetric(worst*100, "%-worst-missed-impact")
}

// BenchmarkTable1 regenerates the assessment-precision study on
// linear_regression and streamcluster (the paper reports <10% difference
// between predicted and real improvement in every cell). Full scale is
// required for sampling density, so this is the slowest benchmark.
func BenchmarkTable1(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, r := range harness.Table1(harness.Config{Scale: 1, Threads: 16, Workers: -1}) {
			if !r.Detected {
				b.Fatalf("%s threads=%d: not detected", r.App, r.Threads)
			}
			if d := r.AbsDiff(); d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst*100, "%-worst-precision-diff")
}

// BenchmarkCompare regenerates the §4.2.3 tool comparison (Cheetah vs
// Predator-style instrumentation vs Sheriff-style page diffing).
func BenchmarkCompare(b *testing.B) {
	var predatorOvh float64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.Compare(benchConfig()) {
			if r.App == "linear_regression" {
				predatorOvh = r.PredatorOverhead
			}
		}
	}
	b.ReportMetric(predatorOvh, "x-predator-slowdown")
}

// BenchmarkAblationPeriod regenerates the sampling-period sweep behind
// the paper's 64K-instruction choice.
func BenchmarkAblationPeriod(b *testing.B) {
	var detectedUpTo uint64
	for i := 0; i < b.N; i++ {
		detectedUpTo = 0
		for _, r := range harness.PeriodAblation(benchConfig()) {
			if r.Detected && r.Period > detectedUpTo {
				detectedUpTo = r.Period
			}
		}
	}
	b.ReportMetric(float64(detectedUpTo), "max-detecting-period")
}

// BenchmarkAblationRule regenerates the invalidation-rule comparison
// (two-entry table vs Zhao et al. ownership bitmap vs MESI ground truth).
func BenchmarkAblationRule(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.RuleAblation(benchConfig()) {
			if r.App == "linear_regression" && r.GroundTruth > 0 {
				ratio = float64(r.TwoEntry) / float64(r.GroundTruth)
			}
		}
	}
	b.ReportMetric(ratio, "x-two-entry-overreport")
}

// BenchmarkRunAll regenerates the entire evaluation through the
// concurrent experiment runner. Cells shared between experiments are
// executed once; the dedup ratio is reported alongside.
func BenchmarkRunAll(b *testing.B) {
	batchGC(b)
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(0)
		harness.RunAllWith(r, benchConfig())
		b.ReportMetric(float64(r.CellsRun()), "cells/op")
	}
}

// BenchmarkRunAllSerial is the forced-serial baseline for BenchmarkRunAll:
// the ratio of the two is the runner's parallel speedup on this machine.
func BenchmarkRunAllSerial(b *testing.B) {
	batchGC(b)
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Workers = 1
		harness.RunAll(cfg)
	}
}

// BenchmarkEngineThroughput measures the simulator substrate itself:
// simulated memory operations per second on the flagship workload.
func BenchmarkEngineThroughput(b *testing.B) {
	batchGC(b)
	w, _ := workload.ByName("linear_regression")
	for i := 0; i < b.N; i++ {
		sys := newBenchSystem()
		prog := w.Build(sys, workload.Params{Threads: 16, Scale: 0.25})
		res := sys.Run(prog)
		var ops uint64
		for _, th := range res.Threads {
			ops += th.MemAccesses
		}
		b.ReportMetric(float64(ops), "simulated-ops/op")
	}
}

// BenchmarkProfilerSampleProcessing measures the profiler's per-sample
// cost in isolation by running the flagship workload at a dense period.
func BenchmarkProfilerSampleProcessing(b *testing.B) {
	w, _ := workload.ByName("linear_regression")
	for i := 0; i < b.N; i++ {
		sys := newBenchSystem()
		prog := w.Build(sys, workload.Params{Threads: 16, Scale: 0.25})
		rep, _ := sys.Profile(prog, profileOptions())
		if rep.Samples == 0 {
			b.Fatal("no samples processed")
		}
	}
}
