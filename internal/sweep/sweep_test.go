package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The cross-process tests re-execute this test binary as a real worker
// subprocess: TestMain intercepts the re-exec before any test runs.
// workerEnv selects plain serving; dieAfterEnv makes the worker exit(1)
// after serving that many cells — the fault-injection "kill" (from the
// pool's perspective an abrupt self-kill and an external SIGKILL are
// the same event: the pipe breaks mid-job); "stall" takes a cell and
// never answers. gateEnv orders workers: a dying worker creates the
// file it names just before it exits, and a serving worker holds its
// first reply until every file in its list (os.PathListSeparator
// between them) exists. A stalling worker creates its file once it
// holds its cell.
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
		if gates := filepath.SplitList(os.Getenv(gateEnv)); len(gates) > 0 {
			w = &gatedWriter{w: os.Stdout, gates: gates}
		}
		if err := Serve(os.Stdin, w); err != nil {
			fmt.Fprintf(os.Stderr, "test worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	case "die-after":
		n, _ := strconv.Atoi(os.Getenv(dieAfterEnv))
		serveThenDie(n)
	case "stall":
		stallUntilEOF(os.Getenv(gateEnv))
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
// its first reply until every gate file exists — or a minute has
// passed, so that a broken ordering fails the test's assertions, not
// its clock.
type gatedWriter struct {
	w      io.Writer
	gates  []string
	writes int
}

func (g *gatedWriter) Write(b []byte) (int, error) {
	// Serve writes its handshake with one flush, so the second write
	// starts the first reply.
	if g.writes++; g.writes == 2 {
		for deadline := time.Now().Add(time.Minute); len(g.gates) > 0 && time.Now().Before(deadline); {
			if _, err := os.Stat(g.gates[0]); err == nil {
				g.gates = g.gates[1:]
			} else {
				time.Sleep(5 * time.Millisecond)
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

// fakeCell builds a syntactically valid cell for tests whose executor
// never runs it.
func fakeCell(name string) harness.Cell {
	return harness.Cell{Kind: harness.KindNative, Workload: name, Threads: 1, Cores: 1, Scale: 1}
}

// pipeWorker spawns an in-process worker over a net.Pipe — the real
// wire protocol without subprocess overhead.
func pipeWorker(int) (io.ReadWriteCloser, error) {
	coordSide, workerSide := net.Pipe()
	go Serve(workerSide, workerSide)
	return coordSide, nil
}

// testCells is the fixed cell list the pool tests run: every cell kind
// on three workloads, small enough to run in milliseconds. Short mode
// (CI -race) runs them at a smaller scale.
func testCells() []harness.Cell {
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	var cells []harness.Cell
	for _, w := range []string{"figure1", "histogram", "linear_regression"} {
		for _, kind := range []string{harness.KindNative, harness.KindProfiled,
			harness.KindPredator, harness.KindSheriff, harness.KindRule} {
			c := harness.Cell{Kind: kind, Workload: w, Threads: 4, Cores: 48, Scale: scale}
			if kind == harness.KindProfiled {
				c.PMU = harness.DetectionPMU()
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// poolRun is the outcome of one-cell jobs on a JobQueue over a ProcPool.
type poolRun struct {
	results map[string]harness.CellResult // the done jobs', by cell ID
	pool    poolStats
	queue   QueueStats
	err     error // the first failed job's, in cell order
}

// runOnPool runs each cell as its own job on a JobQueue whose executor
// is a ProcPool under cfg: the pairing cheetahd -worker-procs serves
// from, with one queue slot per worker.
func runOnPool(t *testing.T, cfg poolConfig, cells []harness.Cell) poolRun {
	t.Helper()
	pool, err := newProcPool(cfg)
	if err != nil {
		t.Fatalf("starting the pool: %v", err)
	}
	defer pool.Close()
	q := NewJobQueue(QueueConfig{Workers: cfg.procs, MaxQueuedCells: len(cells), Exec: pool.Exec})
	jobs := make([]*Job, len(cells))
	for i, c := range cells {
		if jobs[i], err = q.Submit(JobSpec{Cell: c}); err != nil {
			t.Fatal(err)
		}
	}
	r := poolRun{results: map[string]harness.CellResult{}}
	deadline := time.After(5 * time.Minute)
	for _, job := range jobs {
		select {
		case <-job.Done():
		case <-deadline:
			t.Fatalf("jobs of %d cells still running after 5 minutes", len(cells))
		}
		if res, ok := job.Result(); ok {
			r.results[job.Cell.ID()] = res
		} else if r.err == nil {
			r.err = job.Err()
		}
	}
	r.pool, r.queue = pool.stats(), q.Stats()
	return r
}

// localResults memoizes in-process RunCell results, as JSON, by cell ID.
var localResults sync.Map

// checkMatchesLocal asserts that every cell has a result, and that it
// equals what harness.RunCell returns for the cell in this process,
// compared in the JSON form the wire and the cache carry.
func checkMatchesLocal(t *testing.T, cells []harness.Cell, results map[string]harness.CellResult) {
	t.Helper()
	for _, c := range cells {
		got, ok := results[c.ID()]
		if !ok {
			t.Errorf("no result for %s", c.ID())
			continue
		}
		want, ok := localResults.Load(c.ID())
		if !ok {
			local, err := harness.RunCell(c)
			if err != nil {
				t.Fatalf("RunCell(%s): %v", c.ID(), err)
			}
			want = mustJSON(t, local)
			localResults.Store(c.ID(), want)
		}
		if mustJSON(t, got) != want {
			t.Errorf("%s: pool result differs from in-process RunCell", c.ID())
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWorkerDeathRetries is the fault-injection case: one of two
// workers dies with a cell in flight; the pool must retry it on another
// worker, and every cell's result must still equal the in-process one.
func TestWorkerDeathRetries(t *testing.T) {
	cells := testCells()
	// Worker 0 serves two cells, then dies holding a third; worker 1
	// holds its first reply until then, so worker 0 takes those cells.
	gate := gateEnv + "=" + filepath.Join(t.TempDir(), "gate")
	die := spawnSelf(t, workerEnv+"=die-after", dieAfterEnv+"=2", gate)
	serve := spawnSelf(t, gate)
	spawn := func(i int) (io.ReadWriteCloser, error) {
		if i == 0 {
			return die(i)
		}
		return serve(i)
	}
	r := runOnPool(t, poolConfig{procs: 2, spawn: spawn}, cells)
	if r.err != nil {
		t.Fatalf("job with a dying worker: %v", r.err)
	}
	if r.pool.retries == 0 {
		t.Error("no retries recorded; the dying worker should have lost an in-flight cell")
	}
	checkMatchesLocal(t, cells, r.results)
}

// writePhaseTrace writes a small synthetic multi-phase indexed trace
// and returns its trace:<path> workload name and its highest phase.
func writePhaseTrace(t *testing.T) (string, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "phases.trace")
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
	sr, err := trace.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	return "trace:" + path, sr.MaxPhase()
}

// traceCells builds one profiled cell per `trace:` workload name, all
// of the trace behind name.
func traceCells(name string, workloads ...string) []harness.Cell {
	base := harness.Cell{Kind: harness.KindProfiled, Threads: 4, Cores: 8, Scale: 1,
		PMU: harness.DetectionPMU(), TraceHash: harness.TraceContentHash(workload.TracePath(name))}
	cells := make([]harness.Cell, len(workloads))
	for i, w := range workloads {
		cells[i] = base
		cells[i].Workload = w
	}
	return cells
}

// checkTraceReports asserts that every cell's worker report equals the
// in-process RunCell's, and returns the formatted reports in cell order.
func checkTraceReports(t *testing.T, cells []harness.Cell, results map[string]harness.CellResult) []string {
	t.Helper()
	reports := make([]string, len(cells))
	for i, c := range cells {
		local, err := harness.RunCell(c)
		if err != nil {
			t.Fatalf("RunCell(%s): %v", c.Workload, err)
		}
		got, ok := results[c.ID()]
		if !ok || got.Report == nil {
			t.Fatalf("no report for %s", c.Workload)
		}
		reports[i] = got.Report.Format()
		if want := local.Report.Format(); reports[i] != want {
			t.Errorf("%s: worker report differs from in-process RunCell:\n%s", c.Workload, firstDiff(want, reports[i]))
		}
		if got.Result.TotalCycles != local.Result.TotalCycles {
			t.Errorf("%s: worker runtime %d cycles, in-process %d", c.Workload, got.Result.TotalCycles, local.Result.TotalCycles)
		}
	}
	return reports
}

// TestPhaseShardedReplayMatchesLocal runs one multi-phase indexed trace
// as four `trace:<path>@lo-hi` phase-range cells that tile it, plus the
// whole trace and its `@0-<max>` range, on 1, 2 and 4 real worker
// processes. Every report must equal the in-process RunCell's, and the
// range that spans every phase must report exactly what the whole
// trace does. Short mode (CI -race) runs only the 2-process case.
func TestPhaseShardedReplayMatchesLocal(t *testing.T) {
	name, maxPhase := writePhaseTrace(t)
	const ranges = 4
	if maxPhase+1 < ranges {
		t.Fatalf("trace has %d phases, want at least %d", maxPhase+1, ranges)
	}
	workloads := []string{name, fmt.Sprintf("%s@0-%d", name, maxPhase)}
	for i := 0; i < ranges; i++ {
		lo, hi := i*(maxPhase+1)/ranges, (i+1)*(maxPhase+1)/ranges-1
		workloads = append(workloads, fmt.Sprintf("%s@%d-%d", name, lo, hi))
	}
	cells := traceCells(name, workloads...)

	procCounts := []int{1, 2, 4}
	if testing.Short() {
		procCounts = []int{2}
	}
	for _, procs := range procCounts {
		r := runOnPool(t, poolConfig{procs: procs, spawn: spawnSelf(t)}, cells)
		if r.err != nil {
			t.Fatalf("procs=%d: %v", procs, r.err)
		}
		if int(r.queue.CellsExecuted) != len(cells) {
			t.Errorf("procs=%d: queue stats %+v, want %d executed", procs, r.queue, len(cells))
		}
		reports := checkTraceReports(t, cells, r.results)
		if reports[1] != reports[0] {
			t.Errorf("procs=%d: @0-%d report differs from the whole trace's:\n%s",
				procs, maxPhase, firstDiff(reports[0], reports[1]))
		}
	}
}

// TestPhaseShardWorkerKillRequeues runs `trace:` cells on two real
// worker processes: the whole trace, a mid range and the `@0-<max>`
// range of one multi-phase indexed trace. One worker dies holding a
// cell, so a trace cell is retried on the other. Every report must
// equal the in-process RunCell's — a worker death never surfaces as a
// changed or missing report — and the range that spans every phase
// must report exactly what the whole trace does.
func TestPhaseShardWorkerKillRequeues(t *testing.T) {
	name, maxPhase := writePhaseTrace(t)
	cells := traceCells(name, name,
		fmt.Sprintf("%s@%d-%d", name, maxPhase/3, 2*maxPhase/3),
		fmt.Sprintf("%s@0-%d", name, maxPhase))

	// Worker 0 serves one cell, then dies holding a second; the serving
	// worker holds its first reply until then, so it cannot drain the
	// queue first.
	gate := gateEnv + "=" + filepath.Join(t.TempDir(), "gate")
	serve := spawnSelf(t, gate)
	die := spawnSelf(t, workerEnv+"=die-after", dieAfterEnv+"=1", gate)
	spawn := func(i int) (io.ReadWriteCloser, error) {
		if i == 0 {
			return die(i)
		}
		return serve(i)
	}
	r := runOnPool(t, poolConfig{procs: 2, spawn: spawn}, cells)
	if r.err != nil {
		t.Fatalf("trace cells with a dying worker: %v", r.err)
	}
	if r.pool.retries == 0 {
		t.Error("no retries recorded; the dying worker should have lost an in-flight trace cell")
	}
	reports := checkTraceReports(t, cells, r.results)
	if reports[2] != reports[0] {
		t.Errorf("@0-%d report differs from the whole trace's:\n%s", maxPhase, firstDiff(reports[0], reports[2]))
	}
}

// TestAllWorkersDeadFails: when every worker is gone and cells remain,
// the job must fail with a diagnosis instead of hanging.
func TestAllWorkersDeadFails(t *testing.T) {
	r := runOnPool(t, poolConfig{procs: 1,
		spawn: spawnSelf(t, workerEnv+"=die-after", dieAfterEnv+"=0")}, testCells())
	if r.err == nil {
		t.Fatal("job with no surviving workers succeeded")
	}
	if !strings.Contains(r.err.Error(), "workers") {
		t.Errorf("error does not diagnose worker loss: %v", r.err)
	}
}

// TestNoSpawnableWorkersFails: if every spawn errors, bringing up the
// pool must fail at once, naming the cause, instead of blocking on
// workers that never come. cheetahd builds its pool before it serves,
// so this is where its -worker-procs path stops.
func TestNoSpawnableWorkersFails(t *testing.T) {
	t.Parallel()
	spawn := func(int) (io.ReadWriteCloser, error) {
		return nil, fmt.Errorf("forced spawn failure")
	}
	done := make(chan error, 1)
	go func() {
		pool, err := NewProcPool(2, spawn, nil)
		if err == nil {
			pool.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "forced spawn failure") {
			t.Fatalf("pool with unspawnable workers: err = %v, want the spawn failure", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("pool with unspawnable workers hung")
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
// injection: 3 of 4 subprocess workers die early in the job. The pool
// must spawn replacements — not limp serially on the lone survivor —
// and every cell's result must still equal the in-process one.
func TestDeadWorkersAreRespawned(t *testing.T) {
	cells := testCells()
	// The first three workers each serve one cell, then die holding
	// their second. Every other worker holds its first reply until all
	// three have died, so the dying workers take cells until they do.
	dir := t.TempDir()
	var gates []string
	var die [3]func(int) (io.ReadWriteCloser, error)
	for i := range die {
		gates = append(gates, filepath.Join(dir, fmt.Sprintf("gate%d", i)))
		die[i] = spawnSelf(t, workerEnv+"=die-after", dieAfterEnv+"=1", gateEnv+"="+gates[i])
	}
	serve := spawnSelf(t, gateEnv+"="+strings.Join(gates, string(os.PathListSeparator)))
	spawn := func(i int) (io.ReadWriteCloser, error) {
		if i < len(die) {
			return die[i](i)
		}
		return serve(i)
	}
	r := runOnPool(t, poolConfig{procs: 4, spawn: spawn, maxAttempts: 8}, cells)
	if r.err != nil {
		t.Fatalf("job with dying workers: %v", r.err)
	}
	if r.pool.respawns != 3 {
		t.Errorf("respawns = %d, want 3 (one per dead worker)", r.pool.respawns)
	}
	if r.pool.workers != 7 {
		t.Errorf("workers = %d, want 7 (4 originals + 3 replacements)", r.pool.workers)
	}
	if r.pool.retries < 3 {
		t.Errorf("retries = %d, want >= 3 (each death lost an in-flight cell)", r.pool.retries)
	}
	checkMatchesLocal(t, cells, r.results)
}

// TestRespawnBudgetBoundsChurn: when every spawned worker dies at its
// first cell, re-spawning must stop at the configured bound and the
// job must fail with a diagnosis instead of spawning forever.
func TestRespawnBudgetBoundsChurn(t *testing.T) {
	crashing := spawnSelf(t, workerEnv+"=die-after", dieAfterEnv+"=0")
	spawned := 0
	spawn := func(i int) (io.ReadWriteCloser, error) {
		spawned++
		return crashing(i)
	}
	r := runOnPool(t, poolConfig{procs: 1, spawn: spawn, maxRespawns: 2, maxAttempts: 100}, testCells())
	if r.err == nil {
		t.Fatal("job with only crashing workers succeeded")
	}
	if !strings.Contains(r.err.Error(), "workers") {
		t.Errorf("error does not diagnose worker loss: %v", r.err)
	}
	if r.pool.respawns != 2 {
		t.Errorf("respawns = %d, want exactly the budget of 2", r.pool.respawns)
	}
	if spawned != 3 {
		t.Errorf("spawn called %d times, want 3 (1 original + 2 respawns)", spawned)
	}
}
