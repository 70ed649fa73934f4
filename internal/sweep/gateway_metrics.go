package sweep

import "repro/internal/obs"

// Gateway observability: the job queue's admission and dedupe
// lifecycle, one layer above the worker pool's metrics. Everything is
// touched per job or per cell — never per simulated access.
var (
	mGWJobsSubmitted = obs.GetCounter("cheetah_gateway_jobs_submitted_total",
		"Jobs admitted to the queue.")
	mGWJobsRejected = obs.GetCounter("cheetah_gateway_jobs_rejected_total",
		"Jobs rejected because the queue was at its cell bound.")
	mGWJobsCompleted = obs.GetCounter("cheetah_gateway_jobs_completed_total",
		"Jobs whose cell succeeded.")
	mGWJobsFailed = obs.GetCounter("cheetah_gateway_jobs_failed_total",
		"Jobs whose cell failed.")
	mGWJobsRunning = obs.GetGauge("cheetah_gateway_jobs_running",
		"Jobs currently executing.")
	mGWQueueDepth = obs.GetGauge("cheetah_gateway_queue_depth",
		"Jobs, one cell each, admitted but not yet finished.")
	mGWCellsExecuted = obs.GetCounter("cheetah_gateway_cells_executed_total",
		"Cells the gateway actually executed on a worker.")
	mGWCellsCached = obs.GetCounter("cheetah_gateway_cells_cached_total",
		"Cells served from the shared result cache.")
	mGWCellsDeduped = obs.GetCounter("cheetah_gateway_cells_deduped_total",
		"Cells that joined another job's identical in-flight execution.")
	mGWJobSeconds = obs.GetHistogram("cheetah_gateway_job_seconds",
		"Wall-clock seconds per job, submission to terminal state.",
		obs.DurationBuckets)
)
