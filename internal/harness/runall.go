package harness

import (
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
// afterwards.
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
