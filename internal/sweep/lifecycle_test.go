package sweep

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestJobLifecycleInterleavings is the job queue's lifecycle suite. Each
// case is a seeded random sequence of the operations a long-lived
// gateway sees: one-cell jobs of fresh, repeated and already-cached
// cells, subscriptions and their cancellation, GC at zero and nonzero
// retention, polls of a job's state, and Shutdown. The queue executes
// on a ProcPool of in-process workers behind net.Pipe transports; a
// third of the cells kill the worker that first receives them, so
// crashes, respawns and retries interleave with everything else. After
// every case the suite checks the lifecycle invariants:
//   - every subscriber that was not cancelled sees exactly one terminal
//     event, and it is the last one (a cancelled one sees at most one,
//     and only last);
//   - CellsExecuted, CellsCached and CellsDeduped equal the executed,
//     cached and deduped cell-done events of all jobs, and so sum to the
//     finished cells; CellsExecuted equals the cells workers served, and
//     no cell is served twice;
//   - Result() has the result if and only if the job is done: a result
//     means the done state, and Done() closed in the done state means a
//     result;
//   - an evicted job's Get fails, while its cached result still serves
//     a resubmission of its cell without executing it.
func TestJobLifecycleInterleavings(t *testing.T) {
	cases := 2000
	if testing.Short() {
		cases = 200
	}
	// One cache serves every case; each case's cells carry its seed, so
	// no case sees another's entries.
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= cases; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runLifecycleCase(t, int64(seed), cache)
		})
	}
}

// lifecycleCase holds one case's queue, pool and observations.
type lifecycleCase struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	q    *JobQueue
	pool *ProcPool

	nextCell int
	jobs     []*Job
	// mustNotExecute holds resubmissions of finished jobs' cells: the
	// cache or an in-flight lookup must serve every one of them.
	mustNotExecute map[*Job]bool
	subs           []*lifecycleSub
	evicted        map[string]bool
	shutDown       bool
	readers        sync.WaitGroup

	// The worker side: which cells kill their worker the first time one
	// receives them, which already did, and how often each was served.
	mu      sync.Mutex
	crashy  map[string]bool
	crashed map[string]bool
	served  map[string]int
}

// lifecycleSub is one subscriber's view: the snapshot plus everything
// its live channel delivered before closing.
type lifecycleSub struct {
	job       *Job
	cancel    func()
	cancelled bool
	events    []JobEvent
}

func runLifecycleCase(t *testing.T, seed int64, cache *Cache) {
	c := &lifecycleCase{
		t:              t,
		seed:           seed,
		rng:            rand.New(rand.NewSource(seed)),
		mustNotExecute: map[*Job]bool{},
		evicted:        map[string]bool{},
		crashy:         map[string]bool{},
		crashed:        map[string]bool{},
		served:         map[string]int{},
	}
	var err error
	c.pool, err = NewProcPool(2, c.spawn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.pool.Close()
	c.q = NewJobQueue(QueueConfig{Workers: 2, TenantBudget: 1 + c.rng.Intn(2), Cache: cache, Exec: c.pool.Exec})

	for ops := 8 + c.rng.Intn(17); ops > 0; ops-- {
		switch op := c.rng.Intn(20); {
		case op < 5:
			c.submit(c.freshCell(), false)
		case op < 7:
			if j := c.pick(); j != nil {
				// Repeat a job's cell, finished or not.
				c.submit(j.Cell, false)
			}
		case op < 9:
			if j := c.pick(); j != nil && isClosed(j.Done()) && j.State() == JobDone {
				c.submit(j.Cell, true)
			}
		case op < 12:
			if j := c.pick(); j != nil {
				c.subscribe(j)
			}
		case op < 13:
			if len(c.subs) > 0 {
				s := c.subs[c.rng.Intn(len(c.subs))]
				s.cancelled = true
				s.cancel()
			}
		case op < 14:
			c.gc(0)
		case op < 15:
			c.gc(time.Duration(c.rng.Intn(3)) * time.Millisecond)
		case op < 17:
			if j := c.pick(); j != nil {
				c.poll(j)
			}
		case op < 19:
			if j := c.pick(); j != nil {
				c.wait(j)
			}
		default:
			c.shutdown()
		}
	}
	c.shutdown()

	readersDone := make(chan struct{})
	go func() {
		c.readers.Wait()
		close(readersDone)
	}()
	select {
	case <-readersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("a subscriber stream never ended")
	}
	c.check()
}

// spawn brings up one in-process worker over a net.Pipe.
func (c *lifecycleCase) spawn(int) (io.ReadWriteCloser, error) {
	poolSide, workerSide := net.Pipe()
	go c.serve(workerSide)
	return poolSide, nil
}

// serve speaks the worker protocol with an empty result per cell, and
// drops dead holding a crashy cell the first time it receives one.
func (c *lifecycleCase) serve(conn net.Conn) {
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	if WriteMessage(bw, &Message{Type: MsgHello, Proto: ProtoVersion}) != nil || bw.Flush() != nil {
		return
	}
	for {
		m, err := ReadMessage(br)
		if err != nil || m.Type != MsgRun {
			return
		}
		id := m.Cell.ID()
		c.mu.Lock()
		die := c.crashy[id] && !c.crashed[id]
		if die {
			c.crashed[id] = true
		} else {
			c.served[id]++
		}
		c.mu.Unlock()
		if die {
			return
		}
		if WriteMessage(bw, &Message{Type: MsgResult, Seq: m.Seq, Result: &harness.CellResult{}}) != nil || bw.Flush() != nil {
			return
		}
	}
}

// freshCell draws a cell no earlier submission used.
func (c *lifecycleCase) freshCell() harness.Cell {
	cell := fakeCell(fmt.Sprintf("lc%d.%d", c.seed, c.nextCell))
	c.nextCell++
	if c.rng.Intn(3) == 0 {
		c.mu.Lock()
		c.crashy[cell.ID()] = true
		c.mu.Unlock()
	}
	return cell
}

// pick returns a random submitted job, or nil before the first.
func (c *lifecycleCase) pick() *Job {
	if len(c.jobs) == 0 {
		return nil
	}
	return c.jobs[c.rng.Intn(len(c.jobs))]
}

func (c *lifecycleCase) submit(cell harness.Cell, cached bool) {
	tenant := fmt.Sprintf("t%d", c.rng.Intn(2))
	j, err := c.q.Submit(JobSpec{Tenant: tenant, Cell: cell})
	if c.shutDown {
		if !errors.Is(err, ErrShuttingDown) {
			c.t.Errorf("submit after Shutdown: err = %v, want ErrShuttingDown", err)
		}
		return
	}
	if err != nil {
		c.t.Fatalf("submit: %v", err)
	}
	c.jobs = append(c.jobs, j)
	if cached {
		c.mustNotExecute[j] = true
	}
	c.probeTerminal(j)
}

// subscribe adds a subscriber that reads its stream to the end.
func (c *lifecycleCase) subscribe(j *Job) {
	past, live, cancel := j.Subscribe()
	s := &lifecycleSub{job: j, cancel: cancel, events: past}
	c.subs = append(c.subs, s)
	c.readers.Add(1)
	go func() {
		defer c.readers.Done()
		for ev := range live {
			s.events = append(s.events, ev)
		}
	}()
}

// probeTerminal waits for j's cell, then polls its state until it turns
// terminal and subscribes at once, to land a subscription as close to
// the terminal transition as it can. A subscription to a terminal job
// gets a closed channel, so its snapshot is its whole stream and must
// end with the terminal event.
func (c *lifecycleCase) probeTerminal(j *Job) {
	_, live, cancel := j.Subscribe()
	c.readers.Add(1)
	go func() {
		defer c.readers.Done()
		for ev := range live {
			if ev.Kind == "cell-done" {
				break
			}
		}
		cancel()
		for {
			if st := j.State(); st != JobDone && st != JobFailed {
				continue
			}
			past, live, cancel := j.Subscribe()
			defer cancel()
			if _, open := <-live; open {
				c.t.Errorf("job %s: live channel open on a terminal job", j.ID)
			}
			if err := checkStream(past); err != nil {
				c.t.Errorf("job %s: subscriber that found it terminal: %v", j.ID, err)
			}
			return
		}
	}()
}

func (c *lifecycleCase) gc(ttl time.Duration) {
	ids := c.q.GC(ttl)
	resubmitted := false
	for _, id := range ids {
		var j *Job
		for _, cand := range c.jobs {
			if cand.ID == id {
				j = cand
			}
		}
		if j == nil {
			c.t.Errorf("GC(%v) evicted unknown job %s", ttl, id)
			continue
		}
		st := j.State()
		if st != JobDone && st != JobFailed {
			c.t.Errorf("GC(%v) evicted job %s in state %s", ttl, id, st)
		}
		if c.evicted[id] {
			c.t.Errorf("GC(%v) evicted job %s twice", ttl, id)
		}
		c.evicted[id] = true
		if _, ok := c.q.Get(id); ok {
			c.t.Errorf("Get(%s) succeeds after GC evicted it", id)
		}
		if st == JobDone && !resubmitted && !c.shutDown {
			resubmitted = true
			c.submit(j.Cell, true)
		}
	}
}

// poll checks one job's state, result and Done channel against each
// other at an arbitrary moment of its life.
func (c *lifecycleCase) poll(j *Job) {
	if _, ok := j.Result(); ok {
		if st := j.State(); st != JobDone {
			c.t.Errorf("job %s has its result but state %s", j.ID, st)
		}
	}
	if isClosed(j.Done()) {
		st := j.State()
		if st != JobDone && st != JobFailed {
			c.t.Errorf("job %s: Done closed in state %s", j.ID, st)
		}
		if _, ok := j.Result(); ok != (st == JobDone) {
			c.t.Errorf("job %s: Done closed in state %s with a result = %v", j.ID, st, ok)
		}
	}
}

func (c *lifecycleCase) wait(j *Job) {
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		c.t.Fatalf("job %s never finished", j.ID)
	}
}

func (c *lifecycleCase) shutdown() {
	if c.shutDown {
		return
	}
	c.shutDown = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.q.Shutdown(ctx); err != nil {
		c.t.Fatalf("Shutdown: %v", err)
	}
	for _, j := range c.jobs {
		if !isClosed(j.Done()) {
			c.t.Errorf("job %s unfinished after Shutdown returned", j.ID)
		}
	}
}

// check asserts the lifecycle invariants once every job has finished and
// every subscriber stream has ended.
func (c *lifecycleCase) check() {
	t := c.t
	for _, s := range c.subs {
		if err := checkStream(s.events); err != nil && !(s.cancelled && terminals(s.events) == 0) {
			t.Errorf("job %s: subscriber (cancelled=%v): %v", s.job.ID, s.cancelled, err)
		}
	}

	via := map[string]uint64{}
	finished := uint64(0)
	for _, j := range c.jobs {
		past, live, cancel := j.Subscribe()
		cancel()
		if _, open := <-live; open {
			t.Errorf("job %s: live channel open after the job finished", j.ID)
		}
		if err := checkStream(past); err != nil {
			t.Errorf("job %s: history: %v", j.ID, err)
		} else if st := j.State(); past[len(past)-1].Kind != string(st) {
			t.Errorf("job %s: history ends in %q, state is %s", j.ID, past[len(past)-1].Kind, st)
		}
		for _, ev := range past {
			if ev.Kind != "cell-done" {
				continue
			}
			via[ev.Via]++
			finished++
			if c.mustNotExecute[j] && ev.Via == "executed" {
				t.Errorf("job %s resubmits a finished cell, yet executed %s", j.ID, ev.Cell)
			}
		}
		c.poll(j)
		if c.mustNotExecute[j] && j.State() != JobDone {
			t.Errorf("job %s of cached cells ended %s: %v", j.ID, j.State(), j.Err())
		}
	}

	s := c.q.Stats()
	if s.CellsExecuted != via["executed"] || s.CellsCached != via["cached"] || s.CellsDeduped != via["deduped"] {
		t.Errorf("stats count %d executed, %d cached, %d deduped; cell-done events say %d, %d, %d",
			s.CellsExecuted, s.CellsCached, s.CellsDeduped, via["executed"], via["cached"], via["deduped"])
	}
	if sum := s.CellsExecuted + s.CellsCached + s.CellsDeduped; sum != finished {
		t.Errorf("executed + cached + deduped = %d, finished cells = %d", sum, finished)
	}
	served := 0
	c.mu.Lock()
	for id, n := range c.served {
		served += n
		if n > 1 {
			t.Errorf("cell %s served %d times", id, n)
		}
	}
	c.mu.Unlock()
	if uint64(served) != s.CellsExecuted {
		t.Errorf("workers served %d cells, stats count %d executed", served, s.CellsExecuted)
	}
	if s.Submitted != uint64(len(c.jobs)) || s.Completed+s.Failed != s.Submitted || s.QueuedCells != 0 {
		t.Errorf("stats %+v after %d accepted jobs all finished", s, len(c.jobs))
	}

	for id := range c.evicted {
		if _, ok := c.q.Get(id); ok {
			t.Errorf("evicted job %s is back in the table", id)
		}
	}
	for _, j := range c.q.Jobs() {
		if c.evicted[j.ID] {
			t.Errorf("evicted job %s is listed", j.ID)
		}
	}
}

// checkStream requires exactly one terminal event, in last place.
func checkStream(events []JobEvent) error {
	if n := terminals(events); n != 1 {
		return fmt.Errorf("%d terminal events in %v", n, kinds(events))
	}
	if last := events[len(events)-1].Kind; last != "done" && last != "failed" {
		return fmt.Errorf("stream ends in %q, not the terminal event: %v", last, kinds(events))
	}
	return nil
}

func terminals(events []JobEvent) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == "done" || ev.Kind == "failed" {
			n++
		}
	}
	return n
}

func kinds(events []JobEvent) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = ev.Kind
	}
	return out
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
