package sweep

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
)

// countingExec builds a stub executor that counts executions per cell
// ID and can be gated to force concurrent submissions to overlap.
type countingExec struct {
	mu    sync.Mutex
	runs  map[string]int
	gate  chan struct{} // nil = run immediately
	total atomic.Int64
}

func (e *countingExec) exec(c harness.Cell) (harness.CellResult, error) {
	if e.gate != nil {
		<-e.gate
	}
	e.mu.Lock()
	if e.runs == nil {
		e.runs = make(map[string]int)
	}
	e.runs[c.ID()]++
	e.mu.Unlock()
	e.total.Add(1)
	return harness.CellResult{}, nil
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never finished", j.ID)
	}
}

// TestJobQueueDedupesConcurrentIdenticalJobs: N jobs for the same cell
// submitted while the first is still executing must collapse to ONE
// execution, with every job completing successfully — the gateway's
// cache-hit dedupe invariant at the queue layer.
func TestJobQueueDedupesConcurrentIdenticalJobs(t *testing.T) {
	t.Parallel()
	var total atomic.Int64
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	exec := func(c harness.Cell) (harness.CellResult, error) {
		entered <- struct{}{}
		<-gate
		total.Add(1)
		return harness.CellResult{}, nil
	}
	q := NewJobQueue(QueueConfig{Workers: 8, Exec: exec})

	const n = 20
	jobs := make([]*Job, n)
	for i := range jobs {
		j, err := q.Submit(JobSpec{Tenant: fmt.Sprintf("t%d", i%4), Cell: fakeCell("same")})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	// One job is executing (blocked on the gate, holding the flight);
	// wait for the other n-1 to join that flight so the overlap the
	// test asserts on is guaranteed, not racy.
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("no execution ever started")
	}
	deadline := time.After(30 * time.Second)
	for q.Stats().CellsDeduped != n-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d jobs joined the in-flight execution, want %d", q.Stats().CellsDeduped, n-1)
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	for _, j := range jobs {
		waitJob(t, j)
		if j.State() != JobDone {
			t.Fatalf("job %s state = %s, err = %v", j.ID, j.State(), j.Err())
		}
	}
	if got := total.Load(); got != 1 {
		t.Errorf("executed %d times, want 1 (identical concurrent jobs must dedupe)", got)
	}
	s := q.Stats()
	if s.CellsExecuted != 1 || s.CellsDeduped != n-1 {
		t.Errorf("stats = %+v, want 1 executed and %d deduped", s, n-1)
	}
	if s.QueuedCells != 0 {
		t.Errorf("queue depth %d after all jobs finished, want 0", s.QueuedCells)
	}
}

// TestJobQueueTenantBudget: a tenant's cells never execute more than
// TenantBudget at once, even with free worker slots, and a budgeted
// tenant cannot starve another tenant's job.
func TestJobQueueTenantBudget(t *testing.T) {
	t.Parallel()
	const budget = 2
	var (
		mu       sync.Mutex
		cur, max int
	)
	block := make(chan struct{})
	exec := func(c harness.Cell) (harness.CellResult, error) {
		mu.Lock()
		cur++
		if cur > max {
			max = cur
		}
		mu.Unlock()
		<-block
		mu.Lock()
		cur--
		mu.Unlock()
		return harness.CellResult{}, nil
	}
	q := NewJobQueue(QueueConfig{Workers: 16, TenantBudget: budget, Exec: exec})

	// One tenant, 8 jobs of distinct cells: at most `budget` execute at
	// once.
	hogs := make([]*Job, 8)
	for i := range hogs {
		j, err := q.Submit(JobSpec{Tenant: "hog", Cell: fakeCell(fmt.Sprintf("hog-%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		hogs[i] = j
	}
	// A second tenant gets its own budget: its cell must start even
	// while the hog is saturated.
	other, err := q.Submit(JobSpec{Tenant: "other", Cell: fakeCell("other-cell")})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until budget+1 executions are in flight (hog at budget, other
	// running) to prove concurrency is per-tenant, then release.
	deadline := time.After(30 * time.Second)
	for {
		mu.Lock()
		n := cur
		mu.Unlock()
		if n >= budget+1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("never reached %d concurrent executions (stuck at %d)", budget+1, n)
		case <-time.After(time.Millisecond):
		}
	}
	close(block)
	for _, j := range append(hogs, other) {
		waitJob(t, j)
	}
	if max > budget+1 {
		t.Errorf("max concurrency %d, want <= %d (hog budget %d + other 1)", max, budget+1, budget)
	}
}

// TestJobQueueBoundedAdmission: submissions beyond MaxQueuedCells fail
// fast with ErrQueueFull, and capacity frees up as cells finish.
func TestJobQueueBoundedAdmission(t *testing.T) {
	t.Parallel()
	block := make(chan struct{})
	exec := func(c harness.Cell) (harness.CellResult, error) {
		<-block
		return harness.CellResult{}, nil
	}
	q := NewJobQueue(QueueConfig{Workers: 1, MaxQueuedCells: 2, Exec: exec})

	var admitted []*Job
	for _, name := range []string{"a", "b"} {
		j, err := q.Submit(JobSpec{Cell: fakeCell(name)})
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, j)
	}
	if _, err := q.Submit(JobSpec{Cell: fakeCell("c")}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound submit: err = %v, want ErrQueueFull", err)
	}
	if s := q.Stats(); s.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", s.Rejected)
	}
	close(block)
	for _, j := range admitted {
		waitJob(t, j)
	}
	if _, err := q.Submit(JobSpec{Cell: fakeCell("c")}); err != nil {
		t.Fatalf("submit after capacity freed: %v", err)
	}
}

// TestJobQueueCacheServesLaterJob: a job finished and cached means an
// identical job submitted later (no in-flight overlap) is served from
// disk with zero executions.
func TestJobQueueCacheServesLaterJob(t *testing.T) {
	t.Parallel()
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ex := &countingExec{}
	q := NewJobQueue(QueueConfig{Workers: 2, Cache: cache, Exec: ex.exec})

	first, err := q.Submit(JobSpec{Cell: fakeCell("x")})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first)
	second, err := q.Submit(JobSpec{Cell: fakeCell("x")})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, second)
	if got := ex.total.Load(); got != 1 {
		t.Errorf("executed %d times, want 1 (second job must hit the cache)", got)
	}
	if s := q.Stats(); s.CellsCached != 1 {
		t.Errorf("CellsCached = %d, want 1", s.CellsCached)
	}
}

// TestJobQueueShutdown: Shutdown drains running jobs and rejects new
// submissions.
func TestJobQueueShutdown(t *testing.T) {
	t.Parallel()
	ex := &countingExec{}
	q := NewJobQueue(QueueConfig{Workers: 2, Exec: ex.exec})
	j, err := q.Submit(JobSpec{Cell: fakeCell("x")})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-j.Done():
	default:
		t.Error("Shutdown returned with the job unfinished")
	}
	if _, err := q.Submit(JobSpec{Cell: fakeCell("y")}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after Shutdown: err = %v, want ErrShuttingDown", err)
	}
}

// TestJobEventsStream: a subscriber sees the full queued → running →
// cell-done → done sequence, and a late subscriber gets it all as the
// snapshot.
func TestJobEventsStream(t *testing.T) {
	t.Parallel()
	ex := &countingExec{gate: make(chan struct{})}
	q := NewJobQueue(QueueConfig{Workers: 1, Exec: ex.exec})
	j, err := q.Submit(JobSpec{Cell: fakeCell("x")})
	if err != nil {
		t.Fatal(err)
	}
	past, live, cancel := j.Subscribe()
	defer cancel()
	close(ex.gate)
	waitJob(t, j)

	kinds := make([]string, 0, 4)
	for _, ev := range past {
		kinds = append(kinds, ev.Kind)
	}
	for ev := range live {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"queued", "running", "cell-done", "done"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}

	latePast, lateLive, lateCancel := j.Subscribe()
	defer lateCancel()
	if len(latePast) != 4 {
		t.Errorf("late subscriber snapshot has %d events, want 4", len(latePast))
	}
	if _, open := <-lateLive; open {
		t.Error("late subscriber's live channel not closed on a finished job")
	}
}

// TestSubscribeAtTerminalTransition subscribes at the instant a job
// reaches its terminal state, where Subscribe once returned a terminal
// job's history without its terminal event and an already-closed
// channel. Every subscriber's stream, early or in that instant, must end
// with the terminal event, for finished and failed jobs alike.
func TestSubscribeAtTerminalTransition(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		err        error
	}{
		{"done", "done", nil},
		{"failed", "failed", errors.New("cell exploded")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec := func(harness.Cell) (harness.CellResult, error) { return harness.CellResult{}, tc.err }
			q := NewJobQueue(QueueConfig{Workers: 1, Exec: exec})
			var atFinish []string
			var liveAfter int
			q.afterFinish = func(j *Job) {
				past, live, cancel := j.Subscribe()
				defer cancel()
				for _, ev := range past {
					atFinish = append(atFinish, ev.Kind)
				}
				for range live {
					liveAfter++
				}
			}
			j, err := q.Submit(JobSpec{Cell: fakeCell("x")})
			if err != nil {
				t.Fatal(err)
			}
			past, live, cancel := j.Subscribe()
			defer cancel()
			waitJob(t, j)

			early := make([]string, 0, 4)
			for _, ev := range past {
				early = append(early, ev.Kind)
			}
			for ev := range live {
				early = append(early, ev.Kind)
			}
			for name, kinds := range map[string][]string{"early": early, "at-finish": atFinish} {
				if len(kinds) == 0 || kinds[len(kinds)-1] != tc.want {
					t.Errorf("%s subscriber saw %v, want a stream ending in %q", name, kinds, tc.want)
				}
			}
			if liveAfter != 0 {
				t.Errorf("at-finish subscriber got %d live events after its snapshot", liveAfter)
			}
		})
	}
}

// TestProcPoolExecMatchesLocal: a cell executed through the pool's wire
// protocol returns the same payload as local execution, and a worker
// crash mid-assignment is healed by respawn-and-retry. The cells are
// figure1's cell of every kind and a numa2x24 cell whose result differs
// from the default machine's, so a worker that dropped the cell's
// machine would be caught.
func TestProcPoolExecMatchesLocal(t *testing.T) {
	t.Parallel()
	numa := harness.Cell{Kind: harness.KindProfiled, Workload: "figure1", Threads: 32, Cores: 48,
		Scale: 0.02, PMU: harness.DetectionPMU(), Machine: "numa2x24"}
	onDefault := numa
	onDefault.Machine = ""
	a, errA := harness.RunCell(numa)
	b, errB := harness.RunCell(onDefault)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if mustJSON(t, a) == mustJSON(t, b) {
		t.Fatal("the numa2x24 cell's result equals the default machine's; it cannot catch a dropped machine")
	}
	cells := append(testCells()[:5], numa)

	pool, err := NewProcPool(2, func(int) (io.ReadWriteCloser, error) { return pipeWorker(0) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	results := map[string]harness.CellResult{}
	for _, c := range cells {
		got, err := pool.Exec(c)
		if err != nil {
			t.Fatalf("pool exec %s: %v", c.ID(), err)
		}
		results[c.ID()] = got
	}
	checkMatchesLocal(t, cells, results)

	// Crash injection: the first worker dies on its first assignment;
	// the pool must respawn and serve the cell on the replacement.
	spawned := 0
	crashPool, err := NewProcPool(1, func(int) (io.ReadWriteCloser, error) {
		spawned++
		if spawned == 1 {
			coord, worker := net.Pipe()
			go func() {
				br := bufio.NewReader(worker)
				bw := bufio.NewWriter(worker)
				if err := WriteMessage(bw, &Message{Type: MsgHello, Proto: ProtoVersion}); err != nil {
					return
				}
				bw.Flush()
				// Read the assignment, then drop dead without replying.
				ReadMessage(br)
				worker.Close()
			}()
			return coord, nil
		}
		return pipeWorker(0)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer crashPool.Close()
	if _, err := crashPool.Exec(cells[0]); err != nil {
		t.Fatalf("pool exec across worker crash: %v", err)
	}
	if spawned != 2 {
		t.Errorf("spawned %d workers, want 2 (original + replacement)", spawned)
	}
}

// TestFinishedTenantsAreForgotten: tenant names are client input (the
// gateway's X-Tenant header), so the queue keeps a tenant's budget only
// while the tenant has an unfinished job. 100 tenants of one job each
// must leave no entry once every job has finished, and a tenant's entry
// must outlive a finished job while another of its jobs still runs.
func TestFinishedTenantsAreForgotten(t *testing.T) {
	t.Parallel()
	ex := &countingExec{}
	q := NewJobQueue(QueueConfig{Workers: 4, Exec: ex.exec})
	jobs := make([]*Job, 100)
	for i := range jobs {
		j, err := q.Submit(JobSpec{Tenant: fmt.Sprintf("tenant-%d", i), Cell: fakeCell(fmt.Sprintf("c%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		waitJob(t, j)
	}
	if left := tenantEntries(q); left != 0 {
		t.Errorf("%d tenant entries left after every job finished, want 0", left)
	}

	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(fakeCell("hit"), harness.CellResult{}); err != nil {
		t.Fatal(err)
	}
	gated := &countingExec{gate: make(chan struct{})}
	q = NewJobQueue(QueueConfig{Workers: 4, Cache: cache, Exec: gated.exec})
	running, err := q.Submit(JobSpec{Tenant: "t", Cell: fakeCell("slow")})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := q.Submit(JobSpec{Tenant: "t", Cell: fakeCell("hit")})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, hit)
	if n := tenantEntries(q); n != 1 {
		t.Errorf("%d tenant entries while the tenant's job %s runs, want 1", n, running.ID)
	}
	close(gated.gate)
	waitJob(t, running)
	if n := tenantEntries(q); n != 0 {
		t.Errorf("%d tenant entries after the tenant's last job finished, want 0", n)
	}
}

func tenantEntries(q *JobQueue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tenants)
}
