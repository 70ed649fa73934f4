package harness

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/workload"
)

// Fig1Row is one thread count of the Figure 1 experiment.
type Fig1Row struct {
	Threads int
	// Expectation is the linear-speedup runtime (single-thread runtime
	// divided by the thread count), in cycles.
	Expectation float64
	// Reality is the measured runtime with false sharing.
	Reality uint64
	// Fixed is the measured runtime with the padded layout.
	Fixed uint64
}

// Slowdown is Reality over Expectation — the paper reports ~13x at 8
// threads.
func (r Fig1Row) Slowdown() float64 { return float64(r.Reality) / r.Expectation }

// Figure1 reproduces the introduction's motivation experiment.
func Figure1(c Config) []Fig1Row { return runnerFor(c).figure1(c) }

func (r *Runner) figure1(c Config) []Fig1Row {
	c = c.withDefaults()
	axis := []int{1, 2, 4, 8}
	cfgAt := func(threads int) Config {
		return Config{Scale: c.Scale, Threads: threads, Cores: c.Cores}
	}
	// Submit every cell before waiting on any, so they fill the pool.
	single := r.native("figure1", cfgAt(1), false)
	type pair struct{ reality, fixed *cell }
	cells := make([]pair, len(axis))
	for i, threads := range axis {
		cells[i] = pair{
			reality: r.native("figure1", cfgAt(threads), false),
			fixed:   r.native("figure1", cfgAt(threads), true),
		}
	}
	base := single.wait().Result.TotalCycles
	rows := make([]Fig1Row, 0, len(axis))
	for i, threads := range axis {
		rows = append(rows, Fig1Row{
			Threads:     threads,
			Expectation: float64(base) / float64(threads),
			Reality:     cells[i].reality.wait().Result.TotalCycles,
			Fixed:       cells[i].fixed.wait().Result.TotalCycles,
		})
	}
	return rows
}

// FormatFigure1 renders the Figure 1 rows.
func FormatFigure1(rows []Fig1Row) string {
	header := []string{"threads", "expectation(cyc)", "reality(cyc)", "fixed(cyc)", "reality/expectation"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.0f", r.Expectation),
			fmt.Sprintf("%d", r.Reality),
			fmt.Sprintf("%d", r.Fixed),
			fmt.Sprintf("%.1fx", r.Slowdown()),
		})
	}
	return "Figure 1: false sharing microbenchmark (expectation vs reality)\n" +
		renderTable(header, out)
}

// Fig4Row is one application of the overhead study.
type Fig4Row struct {
	App string
	// Native and Profiled are end-to-end runtimes in cycles.
	Native, Profiled uint64
	// Threads is the total number of threads the program created.
	Threads int
	// Samples is the number of address samples Cheetah accepted.
	Samples uint64
}

// Overhead is Profiled/Native - 1.
func (r Fig4Row) Overhead() float64 {
	return float64(r.Profiled)/float64(r.Native) - 1
}

// Figure4 measures Cheetah's runtime overhead on all 17 applications with
// the paper's 64K sampling period. Overhead is measured, not asserted:
// the PMU charges per-tag handler cycles and per-thread setup cycles to
// the monitored threads.
func Figure4(c Config) []Fig4Row { return runnerFor(c).figure4(c) }

func (r *Runner) figure4(c Config) []Fig4Row {
	c = c.withDefaults()
	c.PMU = OverheadPMU()
	type pair struct {
		w                *workload.Workload
		native, profiled *cell
	}
	var cells []pair
	for _, w := range workload.All() {
		if w.Suite == "micro" {
			continue
		}
		cells = append(cells, pair{
			w:        w,
			native:   r.native(w.Name, c, false),
			profiled: r.profiled(w.Name, c, false),
		})
	}
	rows := make([]Fig4Row, 0, len(cells))
	for _, p := range cells {
		prof := p.profiled.wait()
		rows = append(rows, Fig4Row{
			App:      p.w.Name,
			Native:   p.native.wait().Result.TotalCycles,
			Profiled: prof.Result.TotalCycles,
			Threads:  p.w.TotalThreads(c.Threads),
			Samples:  prof.Report.Samples,
		})
	}
	return rows
}

// AverageOverhead returns the mean overhead over rows, and the mean with
// the thread-heavy outliers (kmeans, x264) excluded — the paper reports
// ~7% and ~4% respectively.
func AverageOverhead(rows []Fig4Row) (all, excludingThreadHeavy float64) {
	var sum, sumEx float64
	nEx := 0
	for _, r := range rows {
		sum += r.Overhead()
		if r.App != "kmeans" && r.App != "x264" {
			sumEx += r.Overhead()
			nEx++
		}
	}
	return sum / float64(len(rows)), sumEx / float64(nEx)
}

// FormatFigure4 renders the overhead study.
func FormatFigure4(rows []Fig4Row) string {
	header := []string{"application", "threads", "native(cyc)", "cheetah(cyc)", "overhead", "samples"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%d", r.Native),
			fmt.Sprintf("%d", r.Profiled),
			pct(r.Overhead()),
			fmt.Sprintf("%d", r.Samples),
		})
	}
	avg, avgEx := AverageOverhead(rows)
	return "Figure 4: Cheetah runtime overhead (normalized to pthreads)\n" +
		renderTable(header, out) +
		fmt.Sprintf("AVERAGE overhead: %s (excluding kmeans/x264: %s)\n", pct(avg), pct(avgEx))
}

// Figure5 runs the named case-study application under Cheetah and returns
// its report (the paper shows linear_regression's).
func Figure5(app string, c Config) (*core.Report, string) {
	return runnerFor(c).figure5(app, c)
}

func (r *Runner) figure5(app string, c Config) (*core.Report, string) {
	c = c.withDefaults()
	rep := r.profiled(app, c, false).wait().Report
	text := rep.Format()
	if len(rep.Instances) > 0 {
		text += "\n" + rep.Instances[0].FormatWords()
	}
	return rep, text
}

// Fig7Row is one application of the missed-instances study.
type Fig7Row struct {
	App string
	// WithFS and NoFS are native runtimes of the broken and fixed
	// layouts.
	WithFS, NoFS uint64
	// CheetahReports and PredatorReports say whether each tool flags the
	// app's false sharing.
	CheetahReports  bool
	PredatorReports bool
}

// Improvement is the real speedup from fixing — below 0.2% in the paper.
func (r Fig7Row) Improvement() float64 {
	return float64(r.WithFS)/float64(r.NoFS) - 1
}

// Figure7 reproduces the §4.2.3 comparison: the false sharing instances
// Cheetah misses (relative to Predator) have negligible performance
// impact.
func Figure7(c Config) []Fig7Row { return runnerFor(c).figure7(c) }

func (r *Runner) figure7(c Config) []Fig7Row {
	c = c.withDefaults()
	apps := []string{"histogram", "reverse_index", "word_count"}
	type group struct {
		prof, pred, broken, fixed *cell
	}
	cells := make([]group, len(apps))
	for i, app := range apps {
		cells[i] = group{
			prof:   r.profiled(app, c, false),
			pred:   r.predator(app, c, false),
			broken: r.native(app, c, false),
			fixed:  r.native(app, c, true),
		}
	}
	rows := make([]Fig7Row, 0, len(apps))
	for i, app := range apps {
		w, _ := workload.ByName(app)
		rows = append(rows, Fig7Row{
			App:             app,
			WithFS:          cells[i].broken.wait().Result.TotalCycles,
			NoFS:            cells[i].fixed.wait().Result.TotalCycles,
			CheetahReports:  reportsSite(cells[i].prof.wait().Report, w.FSSite),
			PredatorReports: findingsContain(cells[i].pred.wait().Findings, w.FSSite),
		})
	}
	return rows
}

// FormatFigure7 renders the missed-instances study.
func FormatFigure7(rows []Fig7Row) string {
	header := []string{"application", "with-FS(cyc)", "no-FS(cyc)", "impact", "cheetah", "predator"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%d", r.WithFS),
			fmt.Sprintf("%d", r.NoFS),
			fmt.Sprintf("%+.2f%%", r.Improvement()*100),
			reportMark(r.CheetahReports),
			reportMark(r.PredatorReports),
		})
	}
	return "Figure 7: false sharing missed by Cheetah has negligible impact\n" +
		renderTable(header, out)
}

func reportMark(b bool) string {
	if b {
		return "reported"
	}
	return "missed"
}

// Table1Row is one (application, threads) cell of the precision study.
type Table1Row struct {
	App     string
	Threads int
	// Predict is Cheetah's assessed improvement from the broken run.
	Predict float64
	// Real is the measured improvement: native broken / native fixed.
	Real float64
	// Detected reports whether Cheetah found the instance at all.
	Detected bool
}

// Diff is the paper's last column: positive when the prediction
// undershoots the real improvement.
func (r Table1Row) Diff() float64 { return (r.Real - r.Predict) / r.Real }

// AbsDiff is |Diff|; the paper's headline is < 10% everywhere.
func (r Table1Row) AbsDiff() float64 { return math.Abs(r.Diff()) }

// Table1 reproduces the assessment-precision study on linear_regression
// and streamcluster at 16, 8, 4 and 2 threads.
func Table1(c Config) []Table1Row { return runnerFor(c).table1(c) }

func (r *Runner) table1(c Config) []Table1Row {
	c = c.withDefaults()
	type group struct {
		app                 string
		threads             int
		broken, fixed, prof *cell
	}
	var cells []group
	for _, app := range []string{"linear_regression", "streamcluster"} {
		for _, threads := range []int{16, 8, 4, 2} {
			cc := Config{Scale: c.Scale, Threads: threads, Cores: c.Cores, PMU: c.PMU}
			cells = append(cells, group{
				app: app, threads: threads,
				broken: r.native(app, cc, false),
				fixed:  r.native(app, cc, true),
				prof:   r.profiled(app, cc, false),
			})
		}
	}
	rows := make([]Table1Row, 0, len(cells))
	for _, g := range cells {
		w, _ := workload.ByName(g.app)
		row := Table1Row{
			App:     g.app,
			Threads: g.threads,
			Real:    float64(g.broken.wait().Result.TotalCycles) / float64(g.fixed.wait().Result.TotalCycles),
		}
		if in := findInstance(g.prof.wait().Report, w.FSSite); in != nil {
			row.Detected = true
			row.Predict = in.Assessment.Improvement
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable1 renders the precision study in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	header := []string{"Application", "Threads(#)", "Predict", "Real", "Diff(%)"}
	var out [][]string
	for _, r := range rows {
		predict := "n/a"
		if r.Detected {
			predict = fmt.Sprintf("%.3fX", r.Predict)
		}
		out = append(out, []string{
			r.App,
			fmt.Sprintf("%d", r.Threads),
			predict,
			fmt.Sprintf("%.3fX", r.Real),
			fmt.Sprintf("%+.1f", r.Diff()*100),
		})
	}
	return "Table 1: precision of assessment\n" + renderTable(header, out)
}

// findInstance returns the reported instance whose object matches the
// workload's known FS site (allocation file:line or global name).
func findInstance(rep *core.Report, site string) *core.Instance {
	for i := range rep.Instances {
		if instanceMatches(&rep.Instances[i], site) {
			return &rep.Instances[i]
		}
	}
	return nil
}

// reportsSite says whether the report's significant instances include the
// site.
func reportsSite(rep *core.Report, site string) bool {
	return findInstance(rep, site) != nil
}

func instanceMatches(in *core.Instance, site string) bool {
	if in.Object.Name == site {
		return true
	}
	for _, f := range in.Object.Stack {
		if fmt.Sprintf("%s:%d", f.File, f.Line) == site {
			return true
		}
	}
	return false
}

// findingsContain says whether a baseline's findings include a
// false sharing instance at the site.
func findingsContain(fs []baseline.Finding, site string) bool {
	for _, f := range fs {
		if f.FalseSharing && strings.HasPrefix(f.Site, site) {
			return true
		}
	}
	return false
}
