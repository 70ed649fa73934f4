package sweep

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/trace"
)

// writeShardTrace writes a small synthetic multi-phase indexed trace
// and returns its trace:<path> workload name.
func writeShardTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewIndexedEncoder(f)
	err = trace.WriteSynthetic(enc, trace.SynthConfig{Accesses: 1 << 13, Threads: 4, Phases: 12})
	if err == nil {
		err = enc.Close()
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return "trace:" + path
}

// shardPlan plans the sharded replay of name and returns the plan plus
// its cells in sweep-submittable form.
func shardPlan(t *testing.T, name string, shards int) ([]harness.TraceShard, []harness.Cell) {
	t.Helper()
	plan, err := harness.TraceShardPlan(name, shards, harness.Config{Threads: 4, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]harness.Cell, len(plan))
	for i, sh := range plan {
		cells[i] = sh.Cell
	}
	return plan, cells
}

// TestPhaseShardedReplayMatchesLocal is the out-of-core tentpole's
// cross-process leg: one giant trace phase-sharded across 1, 2 and 4
// real worker processes must merge into a report byte-identical to the
// in-process local runner — and the single-shard merged report must
// embed exactly the bytes of a plain full replay of the whole trace,
// anchoring the sharded path to the unsharded one.
func TestPhaseShardedReplayMatchesLocal(t *testing.T) {
	name := writeShardTrace(t)
	plan, cells := shardPlan(t, name, 4)
	if len(plan) != 4 {
		t.Fatalf("planned %d shards, want 4", len(plan))
	}

	local, err := harness.RunShardsLocal(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.FormatShardedReplay(plan, local)
	if err != nil {
		t.Fatal(err)
	}

	procCounts := []int{1, 2, 4}
	if testing.Short() {
		procCounts = []int{2}
	}
	for _, procs := range procCounts {
		res, stats, err := RunCells(Config{Procs: procs, Spawn: spawnSelf(t)}, cells)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if stats.Executed != len(cells) {
			t.Errorf("procs=%d: stats %+v, want %d executed", procs, stats, len(cells))
		}
		got, err := harness.FormatShardedReplay(plan, res)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if got != want {
			t.Errorf("procs=%d: sharded replay diverges from local:\n%s", procs, firstDiff(want, got))
		}
	}

	// One shard covers every phase; its report must be the full replay's.
	plan1, _ := shardPlan(t, name, 1)
	if len(plan1) != 1 {
		t.Fatalf("planned %d shards, want 1", len(plan1))
	}
	one, err := harness.RunShardsLocal(plan1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fullCell := plan1[0].Cell
	fullCell.Workload = name
	full, err := harness.RunCell(fullCell)
	if err != nil {
		t.Fatal(err)
	}
	shardRes := one[plan1[0].Cell.ID()]
	if shardRes.Report.Format() != full.Report.Format() {
		t.Errorf("single-shard report differs from unsharded replay:\n%s",
			firstDiff(full.Report.Format(), shardRes.Report.Format()))
	}
}

// TestPhaseShardWorkerKillRequeues is the shard-level fault injection:
// a worker is killed mid-sweep while holding a phase shard, the pool
// retries that shard on another worker, and the merged report is still
// byte-identical to the local reference — a worker death must never
// surface as a changed (or missing) shard. The survivor holds its first
// reply until the dying worker has taken its second shard, so the
// survivor cannot drain the queue first.
func TestPhaseShardWorkerKillRequeues(t *testing.T) {
	name := writeShardTrace(t)
	plan, cells := shardPlan(t, name, 4)

	local, err := harness.RunShardsLocal(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.FormatShardedReplay(plan, local)
	if err != nil {
		t.Fatal(err)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	gate := gateEnv + "=" + filepath.Join(t.TempDir(), "gate")
	spawn := func(i int) (io.ReadWriteCloser, error) {
		if i == 0 {
			// Worker 0 serves one shard, then dies holding a second.
			return SpawnWorkerProc(exe, nil,
				[]string{workerEnv + "=die-after", dieAfterEnv + "=1", gate}, os.Stderr)
		}
		return SpawnWorkerProc(exe, nil, []string{workerEnv + "=serve", gate}, os.Stderr)
	}
	res, stats, err := RunCells(Config{Procs: 2, Spawn: spawn}, cells)
	if err != nil {
		t.Fatalf("sharded replay with dying worker: %v", err)
	}
	if stats.Retries == 0 {
		t.Error("no retries recorded; the dying worker should have lost an in-flight shard")
	}
	got, err := harness.FormatShardedReplay(plan, res)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("merged report after worker kill diverges:\n%s", firstDiff(want, got))
	}
}
