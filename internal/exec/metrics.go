package exec

import "repro/internal/obs"

// Engine observability. Counters are flushed at thread/phase/program
// boundaries — never inside simulate/apply — so the per-access hot path
// carries zero instrumentation cost: each completed thread folds its
// already-tracked totals into the registry with a handful of atomic
// adds. Metric values never feed back into scheduling or results.
var (
	mProgramsRun = obs.GetCounter("cheetah_exec_programs_total",
		"Programs executed to completion by the engine.")
	mPhasesRun = obs.GetCounter("cheetah_exec_phases_total",
		"Program phases executed by the engine.")
	mThreadsRun = obs.GetCounter("cheetah_exec_threads_total",
		"Simulated threads run to completion.")
	mAccesses = obs.GetCounter("cheetah_exec_accesses_total",
		"Simulated memory accesses executed (flushed per completed thread).")
	mMemCycles = obs.GetCounter("cheetah_exec_mem_cycles_total",
		"Simulated cycles spent in memory accesses (flushed per completed thread).")
	mInstrs = obs.GetCounter("cheetah_exec_instructions_total",
		"Simulated instructions retired (flushed per completed thread).")
	mQueueDepth = obs.GetGauge("cheetah_exec_runnable_threads",
		"Scheduler queue depth at the start of the most recent phase.")
	// The engine waiting on a thread body is metered where it blocks: a
	// refill that finds no buffer ready, never an access.
	mBufferWaits = obs.GetCounter("cheetah_exec_buffer_waits_total",
		"Times the engine blocked waiting for a thread body's next operation buffer.")
	// mBufferWaitNanos sums those waits; it renders in seconds below.
	mBufferWaitNanos obs.Counter
)

func init() {
	obs.Default().GaugeFunc("cheetah_exec_buffer_wait_seconds_total",
		"Seconds the engine spent blocked waiting for thread bodies' operation buffers (monotone).",
		func() float64 { return float64(mBufferWaitNanos.Value()) / 1e9 })
}
