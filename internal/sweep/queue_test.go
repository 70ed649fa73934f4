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
		j, err := q.Submit(JobSpec{Tenant: fmt.Sprintf("t%d", i%4), Cells: []harness.Cell{fakeCell("same")}})
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

	// One tenant, 8 distinct cells: at most `budget` execute at once.
	cells := make([]harness.Cell, 8)
	for i := range cells {
		cells[i] = fakeCell(fmt.Sprintf("hog-%d", i))
	}
	hog, err := q.Submit(JobSpec{Tenant: "hog", Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	// A second tenant gets its own budget: its cell must start even
	// while the hog is saturated.
	other, err := q.Submit(JobSpec{Tenant: "other", Cells: []harness.Cell{fakeCell("other-cell")}})
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
	waitJob(t, hog)
	waitJob(t, other)
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

	j1, err := q.Submit(JobSpec{Cells: []harness.Cell{fakeCell("a"), fakeCell("b")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(JobSpec{Cells: []harness.Cell{fakeCell("c")}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound submit: err = %v, want ErrQueueFull", err)
	}
	if s := q.Stats(); s.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", s.Rejected)
	}
	close(block)
	waitJob(t, j1)
	if _, err := q.Submit(JobSpec{Cells: []harness.Cell{fakeCell("c")}}); err != nil {
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

	first, err := q.Submit(JobSpec{Cells: []harness.Cell{fakeCell("x")}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first)
	second, err := q.Submit(JobSpec{Cells: []harness.Cell{fakeCell("x")}})
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
	j, err := q.Submit(JobSpec{Cells: []harness.Cell{fakeCell("x")}})
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
	if _, err := q.Submit(JobSpec{Cells: []harness.Cell{fakeCell("y")}}); !errors.Is(err, ErrShuttingDown) {
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
	j, err := q.Submit(JobSpec{Cells: []harness.Cell{fakeCell("x")}})
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
			j, err := q.Submit(JobSpec{Cells: []harness.Cell{fakeCell("x")}})
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

// TestTerminalEventSurvivesFullBuffer drives a Job directly: a
// subscriber that never reads overflows its buffer with progress
// events, and must still find the terminal event last on its channel.
func TestTerminalEventSurvivesFullBuffer(t *testing.T) {
	j := &Job{Cells: []harness.Cell{fakeCell("x")}, state: JobRunning,
		done: make(chan struct{}), subs: make(map[int]chan JobEvent)}
	_, live, cancel := j.Subscribe()
	defer cancel()
	for i := 0; i < 2*cap(live); i++ {
		j.emit(JobEvent{Kind: "cell-done", Done: i})
	}
	j.finish(nil, nil)
	var got []JobEvent
	for ev := range live {
		got = append(got, ev)
	}
	if len(got) != cap(live) {
		t.Fatalf("subscriber received %d events, want a full buffer of %d", len(got), cap(live))
	}
	if last := got[len(got)-1]; last.Kind != "done" {
		t.Errorf("last event %q, want the terminal done", last.Kind)
	}
	for _, ev := range got[:len(got)-1] {
		if ev.Kind != "cell-done" {
			t.Errorf("buffered event %q before the terminal one", ev.Kind)
		}
	}
}

// TestProcPoolExecMatchesLocal: a cell executed through the pool's wire
// protocol returns the same payload as local execution, and a worker
// crash mid-assignment is healed by respawn-and-retry.
func TestProcPoolExecMatchesLocal(t *testing.T) {
	t.Parallel()
	cell := harness.EnumerateCells(testConfig(t))[0]
	local, err := harness.RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}

	pool, err := NewProcPool(2, func(int) (io.ReadWriteCloser, error) { return pipeWorker(0) })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	got, err := pool.Exec(cell)
	if err != nil {
		t.Fatalf("pool exec: %v", err)
	}
	if fmt.Sprint(got.Result) != fmt.Sprint(local.Result) {
		t.Error("pool-executed result diverges from local execution")
	}

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
	})
	if err != nil {
		t.Fatal(err)
	}
	defer crashPool.Close()
	if _, err := crashPool.Exec(cell); err != nil {
		t.Fatalf("pool exec across worker crash: %v", err)
	}
	if spawned != 2 {
		t.Errorf("spawned %d workers, want 2 (original + replacement)", spawned)
	}
}
