package sweep

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// flakyPipeWorker serves n cells with empty results over a net.Pipe,
// then drops dead holding its next assignment; n < 0 serves forever.
func flakyPipeWorker(n int) io.ReadWriteCloser {
	poolSide, workerSide := net.Pipe()
	go func() {
		defer workerSide.Close()
		br, bw := bufio.NewReader(workerSide), bufio.NewWriter(workerSide)
		if WriteMessage(bw, &Message{Type: MsgHello, Proto: ProtoVersion}) != nil || bw.Flush() != nil {
			return
		}
		for served := 0; ; served++ {
			m, err := ReadMessage(br)
			if err != nil || m.Type != MsgRun || served == n {
				return
			}
			if WriteMessage(bw, &Message{Type: MsgResult, Seq: m.Seq, Result: &harness.CellResult{}}) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	return poolSide
}

// TestPoolSurvivesScatteredCrashes: the respawn budget bounds deaths in
// a row, not deaths in total. In a 1-worker pool where every worker
// serves one cell and dies on its next, each cell after the first costs
// one crash — more crashes than the 2×procs budget over the run — and
// every cell must still succeed.
func TestPoolSurvivesScatteredCrashes(t *testing.T) {
	t.Parallel()
	spawned := 0
	pool, err := NewProcPool(1, func(int) (io.ReadWriteCloser, error) {
		spawned++
		return flakyPipeWorker(1), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const cells = 8
	for i := 0; i < cells; i++ {
		if _, err := pool.Exec(fakeCell(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	if spawned != cells {
		t.Errorf("spawned %d workers, want %d (the first plus one per crash)", spawned, cells)
	}
}

// TestDeadIdleWorkersCostNoAttempts: workers that died while idle —
// killed between cells — are found dead only when a cell is handed to
// them. Each is retired and replaced, but the cell never reached it, so
// it costs the cell no attempt: a cell must get through a pool whose
// every worker died idle, here more workers than MaxAttempts.
func TestDeadIdleWorkersCostNoAttempts(t *testing.T) {
	t.Parallel()
	const procs = 4
	pool, err := NewProcPool(procs, func(i int) (io.ReadWriteCloser, error) {
		if i < procs {
			poolSide, workerSide := net.Pipe()
			go func() {
				bw := bufio.NewWriter(workerSide)
				if WriteMessage(bw, &Message{Type: MsgHello, Proto: ProtoVersion}) == nil {
					bw.Flush()
				}
				workerSide.Close()
			}()
			return poolSide, nil
		}
		return flakyPipeWorker(-1), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Exec(fakeCell("x")); err != nil {
		t.Fatalf("Exec across %d idle-dead workers: %v", procs, err)
	}
	if s := pool.stats(); s.lost != procs || s.respawns != procs || s.retries != 0 {
		t.Errorf("pool stats %+v, want %d lost, %d respawned and no retry", s, procs, procs)
	}
}

// TestPoolWithNoWorkerLeftFails: once a pool's last worker is gone and
// it cannot spawn another, Exec must fail with a diagnosis instead of
// waiting forever for a free worker.
func TestPoolWithNoWorkerLeftFails(t *testing.T) {
	t.Parallel()
	spawned := 0
	pool, err := NewProcPool(1, func(int) (io.ReadWriteCloser, error) {
		if spawned++; spawned == 1 {
			return flakyPipeWorker(0), nil
		}
		return nil, fmt.Errorf("forced respawn failure")
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Exec(fakeCell("x")); err == nil {
		t.Fatal("Exec succeeded on a worker that dies and cannot be replaced")
	}
	done := make(chan error, 1)
	go func() {
		_, err := pool.Exec(fakeCell("y"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "workers are gone") || !strings.Contains(err.Error(), "worker 0") {
			t.Errorf("Exec on a pool with no worker left: err = %v, want one naming the lost workers", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Exec on a pool with no worker left still blocked after 10s")
	}
}

// TestPoolCloseStopsBusyWorkers: Close must stop a worker subprocess
// that is out serving a cell, not only the idle ones, so no worker
// outlives its pool. The worker process must have exited by the time
// Close returns, and the Exec it was serving must fail.
func TestPoolCloseStopsBusyWorkers(t *testing.T) {
	t.Parallel()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	gate := filepath.Join(t.TempDir(), "gate")
	var worker *procTransport
	pool, err := NewProcPool(1, func(int) (io.ReadWriteCloser, error) {
		rwc, err := SpawnWorkerProc(exe, nil, []string{workerEnv + "=stall", gateEnv + "=" + gate}, os.Stderr)
		worker, _ = rwc.(*procTransport)
		return rwc, err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	execErr := make(chan error, 1)
	go func() {
		_, err := pool.Exec(fakeCell("x"))
		execErr <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(gate); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker never took its cell")
		}
	}
	pool.Close()
	if worker.cmd.ProcessState == nil {
		t.Error("the busy worker process is still running after Close returned")
	}
	select {
	case err := <-execErr:
		if err == nil {
			t.Error("Exec on a closed pool's busy worker succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Error("Exec still blocked 10s after Close")
	}
}

// stallUntilEOF is the "stall" test worker: it handshakes, creates the
// gate file once it holds a cell, and never answers. It exits when its
// stdin closes.
func stallUntilEOF(gate string) {
	br := bufio.NewReader(os.Stdin)
	bw := bufio.NewWriter(os.Stdout)
	if WriteMessage(bw, &Message{Type: MsgHello, Proto: ProtoVersion}) != nil || bw.Flush() != nil {
		os.Exit(1)
	}
	for {
		m, err := ReadMessage(br)
		if err != nil {
			os.Exit(0)
		}
		if m.Type == MsgRun && gate != "" {
			_ = os.WriteFile(gate, nil, 0o644)
		}
	}
}

// TestCellErrorFailsAtOnce: a cell-level error reply fails the cell on
// the worker that reported it; it is not retried on another worker.
func TestCellErrorFailsAtOnce(t *testing.T) {
	t.Parallel()
	r := runOnPool(t, poolConfig{procs: 2, spawn: pipeWorker}, []harness.Cell{fakeCell("no-such-workload")})
	if r.err == nil || !strings.Contains(r.err.Error(), "no-such-workload") {
		t.Fatalf("err = %v, want the cell's own failure", r.err)
	}
	if r.pool.retries != 0 || r.queue.CellsExecuted != 0 {
		t.Errorf("pool %+v, queue %+v: want no retry and nothing executed", r.pool, r.queue)
	}
}
