package sweep

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
)

// TestMachinePresetShardedMatchesSerial extends the cross-config
// determinism suite along the machine axis: for every non-default
// preset, the sweep sharded across 2 real worker processes must merge
// into byte-identical report tables and the exact metrics map of the
// serial in-process run under the same model. This is also the wire
// test for the cell's machine dimension — if workers dropped or
// mangled the Machine field they would simulate the default model and
// diverge from the serial run wherever the preset changes results.
func TestMachinePresetShardedMatchesSerial(t *testing.T) {
	base := testConfig(t)
	for _, name := range machine.Names() {
		if name == machine.DefaultName {
			continue // the canonical model is TestShardedSweepMatchesSerial's job
		}
		t.Run(name, func(t *testing.T) {
			c := base
			c.Machine = name
			serialCfg := c
			serialCfg.Workers = 1
			serial := harness.RunAll(serialCfg)
			serialText := serial.Format()

			res, stats, err := Run(Config{Harness: c, Procs: 2, Spawn: spawnSelf(t)})
			if err != nil {
				t.Fatalf("sharded sweep under %s: %v", name, err)
			}
			if stats.Executed != stats.Cells || stats.Cached != 0 {
				t.Errorf("stats = %+v, want all %d cells executed", stats, stats.Cells)
			}
			if got := res.Format(); got != serialText {
				t.Errorf("sharded report under %s diverges from serial:\n%s",
					name, firstDiff(serialText, got))
			}
		})
	}
}

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
	results, _, err := runCells(Config{Procs: 1, Spawn: spawnSelf(t)}, []harness.Cell{cell})
	if err != nil {
		t.Fatal(err)
	}
	remote, ok := results[cell.ID()]
	if !ok {
		t.Fatalf("no result for %s in %v", cell.ID(), results)
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
