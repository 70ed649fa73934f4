package harness

import (
	"fmt"

	"repro/internal/workload"
)

// CompareRow summarizes one application under the three detectors
// (§4.2.3 and §6.1): whether each reports the app's false sharing, and at
// what runtime overhead.
type CompareRow struct {
	App string
	// HasFS and site describe the ground truth built into the workload.
	FS   workload.FSKind
	Site string
	// Reported flags per tool.
	Cheetah, Predator, Sheriff bool
	// Overheads relative to native (1.0 = no overhead), per tool.
	CheetahOverhead, PredatorOverhead, SheriffOverhead float64
}

// compareApps is the §4.2.3 comparison set: both significant-FS apps, the
// three minor-FS apps Predator alone flags, and an FS-free control.
var compareApps = []string{
	"linear_regression", "streamcluster",
	"histogram", "reverse_index", "word_count",
	"blackscholes",
}

// Compare runs Cheetah, the Predator-style instrumenter and the
// Sheriff-style page-diff detector over the comparison applications.
func Compare(c Config) []CompareRow { return runnerFor(c).compare(c) }

func (r *Runner) compare(c Config) []CompareRow {
	c = c.withDefaults()
	type group struct {
		native, prof, pred, sher *cell
	}
	cells := make([]group, len(compareApps))
	for i, app := range compareApps {
		cells[i] = group{
			native: r.native(app, c, false),
			prof:   r.profiled(app, c, false),
			pred:   r.predator(app, c, false),
			sher:   r.sheriff(app, c, false),
		}
	}
	rows := make([]CompareRow, 0, len(compareApps))
	for i, app := range compareApps {
		w, _ := workload.ByName(app)
		native := cells[i].native.wait().Result.TotalCycles
		prof := cells[i].prof.wait()
		pred := cells[i].pred.wait()
		sher := cells[i].sher.wait()

		row := CompareRow{
			App:              app,
			FS:               w.FS,
			Site:             w.FSSite,
			CheetahOverhead:  float64(prof.Result.TotalCycles) / float64(native),
			PredatorOverhead: float64(pred.Result.TotalCycles) / float64(native),
			SheriffOverhead:  float64(sher.Result.TotalCycles) / float64(native),
		}
		if w.FS != workload.NoFS {
			row.Cheetah = reportsSite(prof.Report, w.FSSite)
			row.Predator = findingsContain(pred.Findings, w.FSSite)
			row.Sheriff = findingsContain(sher.Findings, w.FSSite)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatCompare renders the tool comparison.
func FormatCompare(rows []CompareRow) string {
	header := []string{"application", "ground truth", "cheetah", "predator", "sheriff",
		"cheetah-ovh", "predator-ovh", "sheriff-ovh"}
	var out [][]string
	for _, r := range rows {
		truth := "no FS"
		switch r.FS {
		case workload.SignificantFS:
			truth = "significant FS"
		case workload.MinorFS:
			truth = "minor FS"
		}
		mark := func(found bool) string {
			if r.FS == workload.NoFS {
				return "-"
			}
			return reportMark(found)
		}
		out = append(out, []string{
			r.App, truth,
			mark(r.Cheetah), mark(r.Predator), mark(r.Sheriff),
			fmt.Sprintf("%.2fx", r.CheetahOverhead),
			fmt.Sprintf("%.2fx", r.PredatorOverhead),
			fmt.Sprintf("%.2fx", r.SheriffOverhead),
		})
	}
	return "Comparison with state-of-the-art (paper §4.2.3, §6.1)\n" +
		renderTable(header, out)
}
