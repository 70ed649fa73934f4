package sweep

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// The cross-process tests re-execute this test binary as a real worker
// subprocess: TestMain intercepts the re-exec before any test runs.
// workerEnv selects plain serving; dieAfterEnv makes the worker exit(1)
// after serving that many cells — the fault-injection "kill" (from the
// coordinator's perspective an abrupt self-kill and an external SIGKILL
// are the same event: the pipe breaks mid-sweep). gateEnv names a file
// that orders two workers: a dying worker creates it just before it
// exits, and a serving worker holds its first reply until it exists.
const (
	workerEnv   = "SWEEP_TEST_WORKER"
	dieAfterEnv = "SWEEP_TEST_DIE_AFTER"
	gateEnv     = "SWEEP_TEST_GATE"
)

func TestMain(m *testing.M) {
	switch os.Getenv(workerEnv) {
	case "":
		os.Exit(m.Run())
	case "serve":
		var w io.Writer = os.Stdout
		if gate := os.Getenv(gateEnv); gate != "" {
			w = &gatedWriter{w: os.Stdout, gate: gate}
		}
		if err := Serve(os.Stdin, w); err != nil {
			fmt.Fprintf(os.Stderr, "test worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	case "die-after":
		n, _ := strconv.Atoi(os.Getenv(dieAfterEnv))
		serveThenDie(n)
	}
}

// serveThenDie behaves like Serve for n cells, then drops dead without
// draining its assignment — simulating a worker killed mid-sweep.
func serveThenDie(n int) {
	br := bufio.NewReader(os.Stdin)
	bw := bufio.NewWriter(os.Stdout)
	if err := WriteMessage(bw, &Message{Type: MsgHello, Proto: ProtoVersion}); err != nil {
		os.Exit(1)
	}
	bw.Flush()
	for served := 0; ; served++ {
		m, err := ReadMessage(br)
		if err != nil || m.Type != MsgRun {
			os.Exit(1)
		}
		if served >= n {
			if gate := os.Getenv(gateEnv); gate != "" {
				// Should the write fail, the gated worker waits out its cap.
				_ = os.WriteFile(gate, nil, 0o644)
			}
			os.Exit(1) // dies holding an assigned cell
		}
		res, err := harness.RunCell(*m.Cell)
		if err != nil {
			os.Exit(1)
		}
		if err := WriteMessage(bw, &Message{Type: MsgResult, Seq: m.Seq, Result: &res}); err != nil {
			os.Exit(1)
		}
		bw.Flush()
	}
}

// gatedWriter passes a serving worker's handshake through, then holds
// its first reply until the gate file exists — or a minute has passed,
// so that a broken ordering fails the test's assertions, not its clock.
type gatedWriter struct {
	w      io.Writer
	gate   string
	writes int
}

func (g *gatedWriter) Write(b []byte) (int, error) {
	// Serve writes its handshake with one flush, so the second write
	// starts the first reply.
	if g.writes++; g.writes == 2 {
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if _, err := os.Stat(g.gate); err == nil {
				break
			}
		}
	}
	return g.w.Write(b)
}

// spawnSelf reexecutes the test binary as a worker with extra env.
func spawnSelf(t *testing.T, extraEnv ...string) func(int) (io.ReadWriteCloser, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(int) (io.ReadWriteCloser, error) {
		return SpawnWorkerProc(exe, nil, append([]string{workerEnv + "=serve"}, extraEnv...), os.Stderr)
	}
}

func testConfig(t *testing.T) harness.Config {
	c := harness.Config{Scale: 0.05, Threads: 4}
	if testing.Short() {
		c.Scale = 0.02
	}
	return c
}

// TestShardedSweepMatchesSerial is the subsystem's headline invariant:
// the same sweep sharded across 1, 2 and 4 real worker processes must
// merge into the exact metrics map and byte-identical report tables the
// in-process serial runner produces. Short mode (CI -race) runs a
// smaller scale and only the 2-process sharding.
func TestShardedSweepMatchesSerial(t *testing.T) {
	c := testConfig(t)
	serialCfg := c
	serialCfg.Workers = 1
	serial := harness.RunAll(serialCfg)
	serialText := serial.Format()
	serialMetrics := serial.Metrics()

	procCounts := []int{1, 2, 4}
	if testing.Short() {
		procCounts = []int{2}
	}
	for _, procs := range procCounts {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			res, stats, err := Run(Config{Harness: c, Procs: procs, Spawn: spawnSelf(t)})
			if err != nil {
				t.Fatalf("sharded sweep: %v", err)
			}
			if stats.Executed != stats.Cells || stats.Cached != 0 {
				t.Errorf("stats = %+v, want all %d cells executed", stats, stats.Cells)
			}
			if got := res.Format(); got != serialText {
				t.Errorf("sharded report diverges from serial:\n%s", firstDiff(serialText, got))
			}
			if got := res.Metrics(); !reflect.DeepEqual(got, serialMetrics) {
				t.Errorf("metrics diverge:\nserial:  %v\nsharded: %v", serialMetrics, got)
			}
		})
	}
}

// TestSweepResumesFromCache: a re-sweep over a warm cache must execute
// zero cells (no worker processes even spawn) and still produce the
// identical report — the crashed-sweep resume guarantee.
func TestSweepResumesFromCache(t *testing.T) {
	c := testConfig(t)
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Harness: c, Procs: 2, Spawn: spawnSelf(t), Cache: cache}
	first, stats, err := Run(cfg)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	if stats.Executed == 0 || stats.Cached != 0 {
		t.Fatalf("cold sweep stats = %+v, want all executed", stats)
	}

	cfg.Spawn = func(int) (io.ReadWriteCloser, error) {
		t.Error("resumed sweep spawned a worker")
		return nil, fmt.Errorf("no workers in resume test")
	}
	second, stats, err := Run(cfg)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	if stats.Executed != 0 || stats.Cached != stats.Cells {
		t.Errorf("warm sweep stats = %+v, want all %d cells cached", stats, stats.Cells)
	}
	if f, s := first.Format(), second.Format(); f != s {
		t.Errorf("resumed report diverges:\n%s", firstDiff(f, s))
	}
}

// TestWorkerDeathRetries is the fault-injection case: one of two
// workers dies mid-sweep with cells in flight; the coordinator must
// requeue its work onto the survivor and still merge the identical
// report.
func TestWorkerDeathRetries(t *testing.T) {
	c := testConfig(t)
	serialCfg := c
	serialCfg.Workers = 1
	serialText := harness.RunAll(serialCfg).Format()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spawn := func(i int) (io.ReadWriteCloser, error) {
		if i == 0 {
			// Worker 0 serves two cells, then dies holding a third.
			return SpawnWorkerProc(exe, nil,
				[]string{workerEnv + "=die-after", dieAfterEnv + "=2"}, os.Stderr)
		}
		return SpawnWorkerProc(exe, nil, []string{workerEnv + "=serve"}, os.Stderr)
	}
	res, stats, err := Run(Config{Harness: c, Procs: 2, Spawn: spawn})
	if err != nil {
		t.Fatalf("sweep with dying worker: %v", err)
	}
	if stats.Retries == 0 {
		t.Error("no retries recorded; the dying worker should have lost an in-flight cell")
	}
	if got := res.Format(); got != serialText {
		t.Errorf("report after worker death diverges from serial:\n%s", firstDiff(serialText, got))
	}
}

// stallingWorker handshakes, then swallows every assignment without
// ever replying — a hung remote shard. It keeps reading so it notices
// the coordinator abandoning it (the transport closing) and exits,
// like a remote worker whose connection is torn down.
func stallingWorker(t io.ReadWriteCloser) {
	defer t.Close()
	bw := bufio.NewWriter(t)
	if err := WriteMessage(bw, &Message{Type: MsgHello, Proto: ProtoVersion}); err != nil {
		return
	}
	bw.Flush()
	br := bufio.NewReader(t)
	for {
		if _, err := ReadMessage(br); err != nil {
			return
		}
	}
}

// TestCellTimeoutRequeues is the hung-shard fault injection: one of two
// workers accepts a cell and never replies. With CellTimeout set the
// coordinator must retire it, requeue the cell on the healthy worker,
// and still merge the byte-identical report — without the timeout the
// sweep would hang forever.
func TestCellTimeoutRequeues(t *testing.T) {
	t.Parallel()
	c := testConfig(t)
	serialCfg := c
	serialCfg.Workers = 1
	serialText := harness.RunAll(serialCfg).Format()

	spawn := func(i int) (io.ReadWriteCloser, error) {
		coordSide, workerSide := net.Pipe()
		if i == 0 {
			go stallingWorker(workerSide)
		} else {
			go Serve(workerSide, workerSide)
		}
		return coordSide, nil
	}
	// The timeout must exceed the slowest healthy cell by a wide margin
	// (a spurious trip would just burn an attempt, but the test asserts
	// on retry accounting); the stall is detected concurrently with the
	// healthy worker draining the queue.
	res, stats, err := Run(Config{Harness: c, Procs: 2, Spawn: spawn,
		CellTimeout: 3 * time.Second, MaxAttempts: 5})
	if err != nil {
		t.Fatalf("sweep with stalled worker: %v", err)
	}
	if stats.Retries == 0 {
		t.Error("no retries recorded; the stalled worker's cell should have been requeued")
	}
	if got := res.Format(); got != serialText {
		t.Errorf("report after stalled worker diverges from serial:\n%s", firstDiff(serialText, got))
	}
}

// TestAllWorkersDeadFails: when every worker is gone and cells remain,
// the sweep must fail with a diagnosis instead of hanging.
func TestAllWorkersDeadFails(t *testing.T) {
	c := testConfig(t)
	_, _, err := Run(Config{Harness: c, Procs: 1,
		Spawn: spawnSelf(t, workerEnv+"=die-after", dieAfterEnv+"=0")})
	if err == nil {
		t.Fatal("sweep with no surviving workers succeeded")
	}
	if !strings.Contains(err.Error(), "workers") {
		t.Errorf("error does not diagnose worker loss: %v", err)
	}
}

// TestNoSpawnableWorkersFails: if every Spawn call errors and no
// listener can supply workers, the sweep must fail immediately instead
// of blocking forever on an event stream nobody feeds.
func TestNoSpawnableWorkersFails(t *testing.T) {
	t.Parallel()
	c := testConfig(t)
	spawn := func(int) (io.ReadWriteCloser, error) {
		return nil, fmt.Errorf("forced spawn failure")
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(Config{Harness: c, Procs: 2, Spawn: spawn})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("sweep with unspawnable workers succeeded")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sweep with unspawnable workers hung")
	}
}

// TestTCPWorkers: remote shards dial a listening coordinator; the
// merged report still matches serial. Uses in-process dialers — the
// subprocess transport is covered above; this exercises the TCP path.
func TestTCPWorkers(t *testing.T) {
	c := testConfig(t)
	serialCfg := c
	serialCfg.Workers = 1
	serialText := harness.RunAll(serialCfg).Format()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		go func() {
			// Dial until the worker is accepted; Serve returns when the
			// coordinator shuts the connection down.
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			Serve(conn, conn)
		}()
	}
	res, stats, err := Run(Config{Harness: c, Listener: ln})
	if err != nil {
		t.Fatalf("TCP sweep: %v", err)
	}
	if stats.Executed != stats.Cells {
		t.Errorf("stats = %+v, want all %d cells executed", stats, stats.Cells)
	}
	if got := res.Format(); got != serialText {
		t.Errorf("TCP-sharded report diverges from serial:\n%s", firstDiff(serialText, got))
	}
}

// firstDiff renders the first line where a and b disagree.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := min(len(al), len(bl))
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\na: %s\nb: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("outputs differ in length: %d vs %d lines", len(al), len(bl))
}

// TestDeadWorkersAreRespawned is the worker-loss recovery fault
// injection: 3 of 4 subprocess workers die early in the sweep. The
// coordinator must spawn replacements — not limp serially on the lone
// survivor — and still merge the byte-identical report.
func TestDeadWorkersAreRespawned(t *testing.T) {
	c := testConfig(t)
	serialCfg := c
	serialCfg.Workers = 1
	serialText := harness.RunAll(serialCfg).Format()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spawn := func(i int) (io.ReadWriteCloser, error) {
		if i < 3 {
			// The first three workers each serve one cell, then die
			// holding their second.
			return SpawnWorkerProc(exe, nil,
				[]string{workerEnv + "=die-after", dieAfterEnv + "=1"}, os.Stderr)
		}
		return SpawnWorkerProc(exe, nil, []string{workerEnv + "=serve"}, os.Stderr)
	}
	res, stats, err := Run(Config{Harness: c, Procs: 4, Spawn: spawn, MaxAttempts: 8})
	if err != nil {
		t.Fatalf("sweep with dying workers: %v", err)
	}
	if stats.Respawns != 3 {
		t.Errorf("Respawns = %d, want 3 (one per dead worker)", stats.Respawns)
	}
	if stats.Workers != 7 {
		t.Errorf("Workers = %d, want 7 (4 originals + 3 replacements)", stats.Workers)
	}
	if stats.Retries < 3 {
		t.Errorf("Retries = %d, want >= 3 (each death lost an in-flight cell)", stats.Retries)
	}
	if got := res.Format(); got != serialText {
		t.Errorf("report after respawns diverges from serial:\n%s", firstDiff(serialText, got))
	}
}

// TestRespawnBudgetBoundsChurn: when every spawned worker dies at its
// first cell, re-spawning must stop at the configured bound and the
// sweep must fail with a diagnosis instead of spawning forever.
func TestRespawnBudgetBoundsChurn(t *testing.T) {
	c := testConfig(t)
	spawned := 0
	_, stats, err := Run(Config{Harness: c, Procs: 1, MaxRespawns: 2, MaxAttempts: 100,
		Spawn: func(i int) (io.ReadWriteCloser, error) {
			spawned++
			exe, exeErr := os.Executable()
			if exeErr != nil {
				return nil, exeErr
			}
			return SpawnWorkerProc(exe, nil,
				[]string{workerEnv + "=die-after", dieAfterEnv + "=0"}, os.Stderr)
		}})
	if err == nil {
		t.Fatal("sweep with only crashing workers succeeded")
	}
	if !strings.Contains(err.Error(), "workers") {
		t.Errorf("error does not diagnose worker loss: %v", err)
	}
	if stats.Respawns != 2 {
		t.Errorf("Respawns = %d, want exactly the budget of 2", stats.Respawns)
	}
	if spawned != 3 {
		t.Errorf("Spawn called %d times, want 3 (1 original + 2 respawns)", spawned)
	}

	// A negative budget disables re-spawning entirely.
	spawned = 0
	_, stats, err = Run(Config{Harness: c, Procs: 1, MaxRespawns: -1,
		Spawn: func(i int) (io.ReadWriteCloser, error) {
			spawned++
			exe, exeErr := os.Executable()
			if exeErr != nil {
				return nil, exeErr
			}
			return SpawnWorkerProc(exe, nil,
				[]string{workerEnv + "=die-after", dieAfterEnv + "=0"}, os.Stderr)
		}})
	if err == nil {
		t.Fatal("sweep with crashing worker and respawns disabled succeeded")
	}
	if stats.Respawns != 0 || spawned != 1 {
		t.Errorf("MaxRespawns=-1: Respawns = %d, Spawn calls = %d, want 0 and 1", stats.Respawns, spawned)
	}
}

// TestSweepAccountsAccesses: Stats.Accesses — the numerator of the bench
// throughput stamp — must match the serial runner's total on a sweep
// sharded across worker processes, and must stay populated on a fully
// cache-served re-sweep. Both paths stamped 0 before the counts were
// summed from the result payloads: the per-worker engine counters never
// crossed the wire, and cached cells never touched an engine at all.
func TestSweepAccountsAccesses(t *testing.T) {
	c := testConfig(t)
	serialCfg := c
	serialCfg.Workers = 1
	r := harness.NewRunner(1)
	harness.RunAllWith(r, serialCfg)
	want := r.Accesses()
	if want == 0 {
		t.Fatal("serial runner reports zero accesses; the reference is broken")
	}

	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Harness: c, Procs: 2, Spawn: spawnSelf(t), Cache: cache}
	_, stats, err := Run(cfg)
	if err != nil {
		t.Fatalf("sharded sweep: %v", err)
	}
	if stats.Accesses != want {
		t.Errorf("sharded sweep accounted %d accesses, serial runner %d", stats.Accesses, want)
	}

	// Re-sweep over the warm cache: nothing executes, yet the accesses
	// behind the served results must still be accounted.
	cfg.Spawn = func(int) (io.ReadWriteCloser, error) {
		t.Error("warm re-sweep spawned a worker")
		return nil, fmt.Errorf("no workers in warm re-sweep")
	}
	_, stats, err = Run(cfg)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	if stats.Executed != 0 {
		t.Fatalf("warm sweep executed %d cells, want 0", stats.Executed)
	}
	if stats.Accesses != want {
		t.Errorf("warm sweep accounted %d accesses, want %d", stats.Accesses, want)
	}
}
