package sweep

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
)

// TestMachinePresetChangesCellIdentity pins the identity convention:
// the canonical preset (spelled out or empty) leaves cell IDs exactly
// as they were before the machine dimension existed, and every
// non-default preset yields a distinct ID — so sweep caches can never
// serve one model's result for another's cell.
func TestMachinePresetChangesCellIdentity(t *testing.T) {
	cell := harness.Cell{
		Kind: harness.KindProfiled, Workload: "figure1",
		Threads: 4, Cores: 48, Scale: 0.05, PMU: harness.DetectionPMU(),
	}
	ids := map[string]string{"": cell.ID()}
	canonical := cell
	canonical.Machine = machine.DefaultName
	if got := canonical.ID(); got != cell.ID() {
		t.Errorf("explicit %s cell ID %q differs from implicit default %q",
			machine.DefaultName, got, cell.ID())
	}
	for _, name := range machine.Names() {
		if name == machine.DefaultName {
			continue
		}
		c := cell
		c.Machine = name
		id := c.ID()
		for other, seen := range ids {
			if id == seen {
				t.Errorf("preset %s shares cell ID %q with %q", name, id, other)
			}
		}
		ids[name] = id
	}
}

// TestMachinePresetRoundTripsTheWire pins the worker protocol: a cell
// with a machine preset serializes, executes in a worker process and
// comes back with the result the local runner produces for the same
// cell.
func TestMachinePresetRoundTripsTheWire(t *testing.T) {
	cell := harness.Cell{
		Kind: harness.KindProfiled, Workload: "figure1",
		Threads: 2, Cores: 48, Scale: 0.02, PMU: harness.DetectionPMU(),
		Machine: "line128",
	}
	local, err := harness.RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	r := runOnPool(t, poolConfig{procs: 1, spawn: spawnSelf(t)}, []harness.Cell{cell})
	if r.err != nil {
		t.Fatal(r.err)
	}
	remote, ok := r.results[cell.ID()]
	if !ok {
		t.Fatalf("no result for %s in %v", cell.ID(), r.results)
	}
	lr := harness.RenderDetectionReport(local.Report, local.Result, true, true)
	rr := harness.RenderDetectionReport(remote.Report, remote.Result, true, true)
	if lr != rr {
		t.Errorf("worker-process report diverges from local run:\n%s", firstDiff(lr, rr))
	}
	if fmt.Sprintf("%+v", local.Result) != fmt.Sprintf("%+v", remote.Result) {
		t.Errorf("results diverge:\nlocal:  %+v\nremote: %+v", local.Result, remote.Result)
	}
}
