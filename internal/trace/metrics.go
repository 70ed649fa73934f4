package trace

import "repro/internal/obs"

// Streaming-replay observability: these counters mirror what
// WindowStats reports per replay, aggregated process-wide. They move
// once per thread body, never per record, so the cost is off any hot
// path.
var (
	mWindowLoads = obs.GetCounter("cheetah_trace_window_loads_total",
		"Streaming-replay phase segments read and verified.")
	mWindowOps = obs.GetCounter("cheetah_trace_window_ops_total",
		"Accesses streaming replay decoded from its threads' spans.")
	mWindowOpsMax = obs.GetGauge("cheetah_trace_window_ops_max",
		"Most accesses one thread's span held in a streaming replay.")
)
