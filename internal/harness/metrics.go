package harness

import "repro/internal/obs"

// Harness observability: one counter bump per cell submit/execute and
// one histogram observation per executed cell. Nothing here touches
// cell identity — Cell and the memo map are unchanged, so memoized
// results and sweep cache keys are byte-identical with metrics on.
var (
	mCellsExecuted = obs.GetCounter("cheetah_harness_cells_run_total",
		"Distinct experiment cells executed (memo misses).")
	mCellsMemoized = obs.GetCounter("cheetah_harness_cells_memoized_total",
		"Cell submissions served from the in-process memo (hits).")
	mCellSeconds = obs.GetHistogram("cheetah_harness_cell_seconds",
		"Wall-clock duration of executed cells.", nil)
)
