package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// This file is the job-queue layer, the one cell scheduler: many
// concurrent detection jobs — each one harness cell — multiplexed onto
// one bounded executor. The cheetahd gateway keeps one queue for its
// life. Admission is bounded (a full queue rejects rather than
// buffering without limit), concurrency is budgeted per tenant so one
// client cannot starve the rest, identical cells running at the same
// moment collapse to a single execution (singleflight), and finished
// cells land in the shared content-addressed cache so later jobs are
// served from disk.
// Determinism carries over untouched: a cell's result depends only on
// its identity, so deduping and caching can never change a job's bytes.

// Admission errors. Callers (the HTTP gateway) map these to 429 and 503.
var (
	// ErrQueueFull rejects a submission that would push the queue past
	// MaxQueuedCells — backpressure instead of unbounded buffering.
	ErrQueueFull = errors.New("sweep: job queue full")
	// ErrShuttingDown rejects submissions after Shutdown has begun.
	ErrShuttingDown = errors.New("sweep: job queue shutting down")
)

// QueueConfig configures a JobQueue.
type QueueConfig struct {
	// Workers bounds how many cells execute concurrently across all
	// jobs and tenants (default 4).
	Workers int
	// MaxQueuedCells bounds the jobs, one cell each, admitted but not
	// yet finished (default 1024). A submission past it fails with
	// ErrQueueFull.
	MaxQueuedCells int
	// TenantBudget bounds how many cells one tenant executes
	// concurrently (default: Workers, i.e. no per-tenant throttling).
	// Waiting for budget consumes no worker slot.
	TenantBudget int
	// Cache is the optional shared result cache; hits skip execution and
	// misses are stored, so identical jobs submitted days apart cost one
	// execution.
	Cache *Cache
	// Exec runs one cell (default harness.RunCell — a fresh, isolated
	// system per cell, never the process-wide memoizing runner). A
	// ProcPool's Exec runs cells on worker subprocesses instead.
	Exec func(harness.Cell) (harness.CellResult, error)
	// Log receives human-readable diagnostics (optional).
	Log io.Writer
}

func (c QueueConfig) withDefaults() QueueConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxQueuedCells <= 0 {
		c.MaxQueuedCells = 1024
	}
	if c.TenantBudget <= 0 || c.TenantBudget > c.Workers {
		c.TenantBudget = c.Workers
	}
	if c.Exec == nil {
		c.Exec = harness.RunCell
	}
	return c
}

// JobSpec describes one submitted job.
type JobSpec struct {
	// Tenant attributes the job to a concurrency budget ("" = "default").
	Tenant string
	// Label is a human-readable name for logs and the job listing.
	Label string
	// Cell is the work.
	Cell harness.Cell
}

// JobState is a job's lifecycle position.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobEvent is one step of a job's progress, streamed to subscribers
// (the gateway forwards them as SSE) and retained for late joiners.
type JobEvent struct {
	Kind string `json:"kind"` // queued|running|cell-done|done|failed
	Cell string `json:"cell,omitempty"`
	// Via says how a finished cell was satisfied: executed, cached, or
	// deduped (another in-flight job ran it).
	Via   string `json:"via,omitempty"`
	Err   string `json:"error,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// maxJobEvents is the length of a job's longest event sequence: queued,
// running, cell-done and done.
const maxJobEvents = 4

// Job is one submitted detection job. All methods are safe for
// concurrent use; the result becomes available once Done() is closed.
type Job struct {
	ID     string
	Tenant string
	Label  string
	Cell   harness.Cell

	done chan struct{}

	mu      sync.Mutex
	state   JobState
	err     error
	result  harness.CellResult
	events  []JobEvent
	subs    map[int]chan JobEvent
	nextSub int
	// finishedAt is when the job reached a terminal state; the queue's
	// GC measures retention from it.
	finishedAt time.Time
}

// State returns the job's current lifecycle position.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job has finished (done or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the failure cause, nil while running or on success.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the job's cell result, and whether the job is done:
// a running or failed job has none.
func (j *Job) Result() (harness.CellResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == JobDone
}

// Progress returns (finished, total) cell counts: (1, 1) once the job
// is done, (0, 1) until then or if it failed.
func (j *Job) Progress() (done, total int) {
	if j.State() == JobDone {
		return 1, 1
	}
	return 0, 1
}

// Subscribe returns every event so far plus a live channel for the
// rest, and a cancel function. The channel closes after the job's
// terminal event, and its buffer holds the whole event sequence, so a
// slow subscriber never blocks the job and never misses an event.
func (j *Job) Subscribe() (past []JobEvent, live <-chan JobEvent, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	past = append([]JobEvent(nil), j.events...)
	ch := make(chan JobEvent, maxJobEvents)
	if j.state == JobDone || j.state == JobFailed {
		close(ch)
		return past, ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return past, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if c, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
	}
}

// record appends ev to the history and delivers it to every subscriber;
// j.mu must be held. The send cannot block: a subscriber's buffer holds
// every event a job records. terminal then closes every subscriber
// channel, so each stream ends with the terminal event.
func (j *Job) record(ev JobEvent, terminal bool) {
	j.events = append(j.events, ev)
	for id, ch := range j.subs {
		ch <- ev
		if terminal {
			delete(j.subs, id)
			close(ch)
		}
	}
}

// finish records the cell's outcome and the terminal event and moves
// the job to its terminal state in one critical section, so a Subscribe
// sees either a running job whose live channel will carry the events or
// a finished job whose snapshot ends with them.
func (j *Job) finish(res harness.CellResult, via string, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishedAt = time.Now()
	if err != nil {
		j.state, j.err = JobFailed, err
		j.record(JobEvent{Kind: "failed", Err: err.Error(), Total: 1}, true)
		return
	}
	j.state, j.result = JobDone, res
	j.record(JobEvent{Kind: "cell-done", Cell: j.Cell.ID(), Via: via, Done: 1, Total: 1}, false)
	j.record(JobEvent{Kind: "done", Done: 1, Total: 1}, true)
}

// flight is one in-flight cell execution shared by every job that
// wants that cell — the singleflight memo entry.
type flight struct {
	done chan struct{}
	res  harness.CellResult
	err  error
}

// QueueStats is a snapshot of the queue's lifetime accounting.
type QueueStats struct {
	Submitted, Rejected, Completed, Failed uint64
	// CellsExecuted ran on a worker; CellsCached came from the disk
	// cache; CellsDeduped piggybacked on another job's in-flight
	// execution. The three sum to every finished cell across all jobs.
	CellsExecuted, CellsCached, CellsDeduped uint64
	// JobsEvicted counts terminal jobs GC dropped from the job table.
	JobsEvicted uint64
	// QueuedCells is the current admitted-but-unfinished total, the
	// quantity MaxQueuedCells bounds.
	QueuedCells int
}

// JobQueue multiplexes detection jobs onto a bounded executor pool.
type JobQueue struct {
	cfg QueueConfig

	wg sync.WaitGroup

	// global bounds total concurrent executions; each tenant's semaphore
	// bounds its share. Acquisition order is tenant → global, so a
	// tenant at its budget queues without holding a worker slot.
	global chan struct{}

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	order    []string // submission order, for listings
	inflight map[string]*flight
	tenants  map[string]*tenant
	pending  int // admitted-but-unfinished jobs (bounded)
	nextID   uint64
	stats    QueueStats

	// afterFinish, when set (tests only), runs right after a job reaches
	// its terminal state, before Done closes — where a Subscribe once
	// saw the terminal state without the terminal event.
	afterFinish func(*Job)
}

// tenant is one tenant's execution budget. The queue holds the entry
// while the tenant has an unfinished job and forgets it after, since
// tenant names are client input.
type tenant struct {
	sem  chan struct{}
	jobs int // unfinished
}

// NewJobQueue builds a queue ready to accept submissions.
func NewJobQueue(cfg QueueConfig) *JobQueue {
	cfg = cfg.withDefaults()
	q := &JobQueue{
		cfg:      cfg,
		global:   make(chan struct{}, cfg.Workers),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*flight),
		tenants:  make(map[string]*tenant),
	}
	mGWQueueDepth.Set(0)
	return q
}

// Submit admits a job, returning ErrQueueFull when the job bound is hit
// and ErrShuttingDown after Shutdown. The job starts immediately; track
// it via the returned handle.
func (q *JobQueue) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Cell.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: invalid cell in job: %w", err)
	}
	name := spec.Tenant
	if name == "" {
		name = "default"
	}

	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if q.pending >= q.cfg.MaxQueuedCells {
		q.stats.Rejected++
		q.mu.Unlock()
		mGWJobsRejected.Inc()
		return nil, fmt.Errorf("%w: %d cells queued, at the bound of %d",
			ErrQueueFull, q.pending, q.cfg.MaxQueuedCells)
	}
	q.nextID++
	job := &Job{
		ID:     fmt.Sprintf("j%06d", q.nextID),
		Tenant: name,
		Label:  spec.Label,
		Cell:   spec.Cell,
		done:   make(chan struct{}),
		state:  JobQueued,
		events: []JobEvent{{Kind: "queued", Total: 1}},
		subs:   make(map[int]chan JobEvent),
	}
	q.jobs[job.ID] = job
	q.order = append(q.order, job.ID)
	q.pending++
	depth := q.pending
	q.stats.Submitted++
	t, ok := q.tenants[name]
	if !ok {
		t = &tenant{sem: make(chan struct{}, q.cfg.TenantBudget)}
		q.tenants[name] = t
	}
	t.jobs++
	q.wg.Add(1)
	q.mu.Unlock()

	mGWJobsSubmitted.Inc()
	mGWQueueDepth.Set(int64(depth))
	go q.runJob(job, t)
	return job, nil
}

// Get returns a job by ID.
func (q *JobQueue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (q *JobQueue) Jobs() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.jobs[id])
	}
	return out
}

// Stats returns a snapshot of the queue's accounting.
func (q *JobQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.QueuedCells = q.pending
	return s
}

// GC evicts terminal (done or failed) jobs that reached their terminal
// state at least ttl ago, returning the evicted IDs in submission
// order. Evicted jobs disappear from Get and Jobs — the gateway serves
// 404 for them afterwards — but their cell results live on in the
// shared cache, so resubmitting the same work stays cheap. A ttl of
// zero evicts every terminal job. Running and queued jobs are never
// touched.
func (q *JobQueue) GC(ttl time.Duration) []string {
	cutoff := time.Now().Add(-ttl)
	q.mu.Lock()
	defer q.mu.Unlock()
	var evicted []string
	kept := q.order[:0]
	for _, id := range q.order {
		if q.jobs[id].terminalBefore(cutoff) {
			delete(q.jobs, id)
			evicted = append(evicted, id)
			continue
		}
		kept = append(kept, id)
	}
	q.order = kept
	// Zero the tail so evicted IDs don't pin the backing array.
	tail := q.order[len(q.order):cap(q.order)]
	for i := range tail {
		tail[i] = ""
	}
	q.stats.JobsEvicted += uint64(len(evicted))
	return evicted
}

// terminalBefore reports whether the job finished (done or failed) at
// or before cutoff.
func (j *Job) terminalBefore(cutoff time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone && j.state != JobFailed {
		return false
	}
	return !j.finishedAt.After(cutoff)
}

// Shutdown stops admitting jobs and waits for the running ones until
// ctx expires.
func (q *JobQueue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sweep: jobs still running at shutdown deadline: %w", ctx.Err())
	}
}

// runJob drives one job: its cell through the singleflight/cache/
// execute pipeline, then the terminal event.
func (q *JobQueue) runJob(job *Job, t *tenant) {
	defer q.wg.Done()
	start := time.Now()
	mGWJobsRunning.Add(1)
	defer mGWJobsRunning.Add(-1)
	job.mu.Lock()
	job.state = JobRunning
	job.record(JobEvent{Kind: "running", Total: 1}, false)
	job.mu.Unlock()

	res, via, err := q.cellResult(job.Cell, t.sem)
	if err != nil {
		err = fmt.Errorf("cell %s: %w", job.Cell.ID(), err)
	}

	elapsed := time.Since(start)
	mGWJobSeconds.Observe(elapsed.Seconds())
	if obs.TracingEnabled() {
		obs.Span("gateway", "job", start, time.Now(), 0, map[string]any{
			"job": job.ID, "tenant": job.Tenant, "cells": 1,
		})
	}

	// Account first, so whoever sees the terminal state sees it counted.
	q.mu.Lock()
	q.pending--
	depth := q.pending
	if t.jobs--; t.jobs == 0 {
		delete(q.tenants, job.Tenant)
	}
	if err != nil {
		q.stats.Failed++
	} else {
		q.stats.Completed++
	}
	q.mu.Unlock()
	mGWQueueDepth.Set(int64(depth))
	if err != nil {
		mGWJobsFailed.Inc()
		q.logf("sweep: job %s (%s) failed after %v: %v", job.ID, job.Tenant, elapsed.Round(time.Millisecond), err)
	} else {
		mGWJobsCompleted.Inc()
	}
	job.finish(res, via, err)
	if q.afterFinish != nil {
		q.afterFinish(job)
	}
	close(job.done)
}

// cellResult satisfies one cell: join an identical in-flight execution
// if one exists (deduped), else serve from the cache (cached), else
// acquire tenant and global budget and execute. via reports which path
// won, for the job's progress events and the dedupe assertions in
// tests.
func (q *JobQueue) cellResult(cell harness.Cell, tenantSem chan struct{}) (res harness.CellResult, via string, err error) {
	id := cell.ID()
	q.mu.Lock()
	if f, ok := q.inflight[id]; ok {
		q.stats.CellsDeduped++
		q.mu.Unlock()
		mGWCellsDeduped.Inc()
		<-f.done
		return f.res, "deduped", f.err
	}
	f := &flight{done: make(chan struct{})}
	q.inflight[id] = f
	q.mu.Unlock()

	defer func() {
		f.res, f.err = res, err
		q.mu.Lock()
		delete(q.inflight, id)
		q.mu.Unlock()
		close(f.done)
	}()

	if q.cfg.Cache != nil {
		if hit, ok := q.cfg.Cache.Get(cell); ok {
			q.mu.Lock()
			q.stats.CellsCached++
			q.mu.Unlock()
			mGWCellsCached.Inc()
			return hit, "cached", nil
		}
	}

	// Tenant budget first, worker slot second: a tenant over budget
	// waits without occupying a slot another tenant could use.
	tenantSem <- struct{}{}
	defer func() { <-tenantSem }()
	q.global <- struct{}{}
	defer func() { <-q.global }()

	res, err = q.cfg.Exec(cell)
	if err != nil {
		return harness.CellResult{}, "", err
	}
	q.mu.Lock()
	q.stats.CellsExecuted++
	q.mu.Unlock()
	mGWCellsExecuted.Inc()
	if q.cfg.Cache != nil {
		if perr := q.cfg.Cache.Put(cell, res); perr != nil {
			q.logf("sweep: caching %s: %v", id, perr)
		}
	}
	return res, "executed", nil
}

func (q *JobQueue) logf(format string, args ...any) { logf(q.cfg.Log, format, args...) }

// logf writes one diagnostic line to w, if there is a w.
func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
