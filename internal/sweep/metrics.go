package sweep

import "repro/internal/obs"

// Worker-pool observability: the worker population and the detours a
// cell takes when its worker dies, aggregated process-wide over every
// ProcPool. Cell outcomes (executed, cached, deduped) are the
// job queue's to count. Everything here is touched per cell or per
// worker event — never per simulated access — so the cost is invisible
// next to cell execution.
var (
	mCellsRequeued = obs.GetCounter("cheetah_sweep_cells_requeued_total",
		"Cell assignments retried on another worker after their worker died.")
	mWorkersSpawned = obs.GetCounter("cheetah_sweep_workers_spawned_total",
		"Workers that completed the hello handshake.")
	mWorkersLost = obs.GetCounter("cheetah_sweep_workers_lost_total",
		"Workers retired by transport failure or protocol violation.")
	mWorkersRespawned = obs.GetCounter("cheetah_sweep_workers_respawned_total",
		"Replacement workers spawned after deaths.")
	mWorkersLive = obs.GetGauge("cheetah_sweep_workers_live",
		"Workers currently past their handshake and serving cells.")
	mCellSeconds = obs.GetHistogram("cheetah_sweep_cell_seconds",
		"Wall-clock seconds per cell executed on a pool worker (assignment to reply).",
		obs.DurationBuckets)
)
