package cheetah_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// detectionFootprintBound caps the bytes one small detection run
// allocates (see TestDetectionRunFootprint): the 2.96 MB it allocated
// when the bound was set, plus 25%.
const detectionFootprintBound = 3_700_000

// TestDetectionRunFootprint pins the memory a detection run touches:
// linear_regression at 16 threads and scale 0.05 under the detection
// PMU on the default machine. Every run builds a fresh simulator, and in
// a fresh process each new page costs a fault, so a regression in the
// simulator's per-run state shows here before it shows as time. It
// takes the least of five runs, since a runtime or test-framework
// goroutine allocating during one only ever adds.
func TestDetectionRunFootprint(t *testing.T) {
	w, ok := workload.ByName("linear_regression")
	if !ok {
		t.Fatal("linear_regression workload missing")
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		sys := newBenchSystem()
		prog := w.Build(sys, workload.Params{Threads: 16, Scale: 0.05})
		sys.Profile(prog, profileOptions())
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("one detection run allocates %d bytes (bound %d)", least, detectionFootprintBound)
	if least > detectionFootprintBound {
		t.Errorf("one detection run allocates %d bytes, over the %d-byte bound", least, detectionFootprintBound)
	}
}
