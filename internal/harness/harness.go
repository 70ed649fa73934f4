// Package harness regenerates every table and figure in the paper's
// evaluation (§4): the Figure 1 motivation microbenchmark, the Figure 4
// overhead study, the Figure 5 report case study, the Figure 7
// missed-instances study, Table 1's assessment precision, the §4.2.3
// comparison with Predator, and the design-choice ablations listed in
// DESIGN.md.
//
// Every "Real" number is measured by running the broken and fixed
// variants through the same simulator; every "Predict" number comes from
// Cheetah's assessment of the broken run alone, exactly as in the paper.
package harness

import (
	"fmt"
	"strings"

	cheetah "repro"
	"repro/internal/machine"
	"repro/internal/pmu"
	"repro/internal/workload"
)

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies workload sizes (1.0 = evaluation default).
	Scale float64
	// Threads is the per-phase worker count (16 in the paper).
	Threads int
	// Cores is the machine size (48 in the paper).
	Cores int
	// PMU overrides the sampling configuration for profiled runs; zero
	// value uses DetectionPMU.
	PMU pmu.Config
	// Workers bounds how many experiment cells run concurrently: 0 means
	// GOMAXPROCS on a shared runner that memoizes cells across all
	// package-level experiment calls; any other value uses a private
	// runner (negative = GOMAXPROCS width), re-executing cells — what
	// benchmarks and the determinism tests need. 1 forces serial
	// execution. Results are identical at any worker count — the
	// simulator is deterministic and cells share no state — so Workers
	// trades only wall-clock time and caching.
	Workers int
	// Machine selects the machine-model preset every cell simulates
	// (machine.Names; empty = the canonical opteron48). Unlike Workers
	// this changes results: the model is part of cell identity.
	Machine string
}

// withDefaults fills zero fields with the paper's evaluation setup.
func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Threads == 0 {
		c.Threads = 16
	}
	if c.Cores == 0 {
		c.Cores = 48
	}
	if c.PMU.Period == 0 {
		c.PMU = DetectionPMU()
	}
	return c
}

// OverheadPMU returns the profiling configuration for the Figure 4
// overhead study: IBS cycle-counting mode (the hardware default,
// IbsOpCntCtl=0) with the paper's 64K period, so the trap rate per unit
// of runtime matches the paper's regardless of each workload's simulated
// CPI.
func OverheadPMU() pmu.Config {
	return pmu.Config{
		Period:        64 * 1024,
		Mode:          pmu.CountCycles,
		Jitter:        8 * 1024,
		HandlerCycles: 2600,
		SetupCycles:   4700,
	}
}

// DetectionPMU returns the sampling configuration for detection-quality
// experiments. The simulated workloads are about three orders of
// magnitude shorter than the paper's >=5s runs, so the period is scaled
// down (with handler cost scaled proportionally) to keep the
// samples-per-unit-work density comparable; the 64K period itself is
// exercised by the overhead study and the sampling-period ablation.
func DetectionPMU() pmu.Config {
	return pmu.Config{
		Period:        64,
		Jitter:        24,
		HandlerCycles: 4,
		SetupCycles:   0,
	}
}

// build constructs a fresh system and the workload program on it.
func build(name string, c Config, fixed bool) (*cheetah.System, cheetah.Program) {
	w, ok := workload.ByName(name)
	if !ok {
		panic(fmt.Sprintf("harness: unknown workload %q", name))
	}
	ccfg := cheetah.Config{Cores: c.Cores}
	if m := canonMachine(c.Machine); m != "" {
		model, ok := machine.Preset(m)
		if !ok {
			panic(fmt.Sprintf("harness: unknown machine preset %q", m))
		}
		ccfg.Machine = model
	}
	sys := cheetah.New(ccfg)
	prog := w.Build(sys, workload.Params{Threads: c.Threads, Scale: c.Scale, Fixed: fixed})
	return sys, prog
}

// pct formats a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

// renderTable renders rows as an aligned text table.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
