package harness

import (
	"fmt"

	cheetah "repro"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/shadow"
	"repro/internal/workload"
)

// PeriodRow is one sampling period of the period ablation: the
// detection-quality/overhead trade-off behind the paper's choice of 64K.
type PeriodRow struct {
	Period uint64
	// Samples accepted by the profiler.
	Samples uint64
	// Detected reports whether linear_regression's instance was found.
	Detected bool
	// Predict is the assessed improvement (0 when undetected).
	Predict float64
	// Overhead is the profiled/native runtime ratio minus one.
	Overhead float64
}

// PeriodAblation sweeps the sampling period on linear_regression, showing
// detection degrading and overhead falling as samples get sparser.
func PeriodAblation(c Config) []PeriodRow { return runnerFor(c).periodAblation(c) }

func (r *Runner) periodAblation(c Config) []PeriodRow {
	c = c.withDefaults()
	w, _ := workload.ByName("linear_regression")
	periods := []uint64{1024, 4096, 16384, 65536, 262144, 1048576}
	native := r.native("linear_regression", c, false)
	profs := make([]*cell, len(periods))
	for i, period := range periods {
		cc := c
		cc.PMU = pmu.Config{
			Period:        period,
			Jitter:        period / 8,
			HandlerCycles: 4500,
			SetupCycles:   6000,
		}
		profs[i] = r.profiled("linear_regression", cc, false)
	}
	base := native.wait().Result.TotalCycles
	rows := make([]PeriodRow, 0, len(periods))
	for i, period := range periods {
		prof := profs[i].wait()
		row := PeriodRow{
			Period:   period,
			Samples:  prof.Report.Samples,
			Overhead: float64(prof.Result.TotalCycles)/float64(base) - 1,
		}
		if in := findInstance(prof.Report, w.FSSite); in != nil {
			row.Detected = true
			row.Predict = in.Assessment.Improvement
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatPeriodAblation renders the sweep.
func FormatPeriodAblation(rows []PeriodRow) string {
	header := []string{"period(instr)", "samples", "detected", "predict", "overhead"}
	var out [][]string
	for _, r := range rows {
		predict := "-"
		if r.Detected {
			predict = fmt.Sprintf("%.2fX", r.Predict)
		}
		out = append(out, []string{
			fmt.Sprintf("%d", r.Period),
			fmt.Sprintf("%d", r.Samples),
			reportMark(r.Detected),
			predict,
			pct(r.Overhead),
		})
	}
	return "Ablation: sampling period vs detection and overhead (linear_regression)\n" +
		renderTable(header, out)
}

// RuleRow compares invalidation-counting rules against the machine's
// coherence ground truth on a full (unsampled) access stream.
type RuleRow struct {
	App string
	// GroundTruth is the MESI simulator's invalidation count.
	GroundTruth uint64
	// TwoEntry is Cheetah's two-entry-table count (§2.3).
	TwoEntry uint64
	// Ownership is the Zhao et al. full-ownership-bitmap count.
	Ownership uint64
	// TwoEntryBytes and OwnershipBytes are per-line footprints at the
	// run's thread count.
	TwoEntryBytes, OwnershipBytes int
}

// RuleAblation feeds the full access stream of each application into both
// counting rules and compares them with the coherence simulator's ground
// truth, quantifying the accuracy the two-entry table trades for its
// fixed footprint.
func RuleAblation(c Config) []RuleRow { return runnerFor(c).ruleAblation(c) }

func (r *Runner) ruleAblation(c Config) []RuleRow {
	c = c.withDefaults()
	apps := []string{"figure1", "linear_regression", "streamcluster"}
	cells := make([]*cell, len(apps))
	for i, app := range apps {
		cells[i] = r.rule(app, c)
	}
	rows := make([]RuleRow, len(apps))
	for i := range cells {
		rows[i] = *cells[i].wait().Rule
	}
	return rows
}

// FormatRuleAblation renders the rule comparison.
func FormatRuleAblation(rows []RuleRow) string {
	header := []string{"application", "ground truth", "two-entry", "ownership", "two-entry B/line", "ownership B/line"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%d", r.GroundTruth),
			fmt.Sprintf("%d", r.TwoEntry),
			fmt.Sprintf("%d", r.Ownership),
			fmt.Sprintf("%d", r.TwoEntryBytes),
			fmt.Sprintf("%d", r.OwnershipBytes),
		})
	}
	return "Ablation: invalidation rules vs coherence ground truth (full instrumentation)\n" +
		renderTable(header, out)
}

// twoEntryCounter feeds every parallel-phase heap/global access into the
// shadow two-entry tables — Cheetah's rule at full instrumentation.
type twoEntryCounter struct {
	exec.BaseProbe
	sys           *cheetah.System
	mem           *shadow.Memory
	parallel      bool
	invalidations uint64
}

func newTwoEntryCounter(sys *cheetah.System) *twoEntryCounter {
	return &twoEntryCounter{sys: sys, mem: shadow.NewMemoryGeom(sys.Model().Geometry())}
}

// PhaseStart implements exec.Probe, matching Cheetah's parallel-phase
// gating so the comparison isolates the counting rule.
func (t *twoEntryCounter) PhaseStart(ph exec.PhaseInfo) { t.parallel = ph.Parallel }

// Access implements exec.Probe.
func (t *twoEntryCounter) Access(a mem.Access, instrs uint64) uint64 {
	if !t.parallel {
		return 0
	}
	if !t.sys.Heap().Contains(a.Addr) && !t.sys.Globals().Contains(a.Addr) {
		return 0
	}
	if t.mem.Record(a) {
		t.invalidations++
	}
	return 0
}
