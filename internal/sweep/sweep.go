package sweep

import (
	"fmt"
	"io"
	"time"

	"repro/internal/harness"
)

// Stats summarizes what a sharded sweep actually did, for its logs.
type Stats struct {
	// Cells is the total number of distinct cells the sweep comprises.
	Cells int
	// Cached is how many were satisfied from the result cache.
	Cached int
	// Executed is how many ran on workers this sweep.
	Executed int
	// Retries counts cell assignments re-run on another worker after
	// their worker died or timed out.
	Retries int
	// Workers is how many workers completed the hello handshake.
	Workers int
	// Respawns counts replacement workers spawned after deaths.
	Respawns int
}

// Config configures a sharded sweep and its worker pool.
type Config struct {
	// Harness is the experiment configuration; the merged output is
	// byte-identical to harness.RunAll(Harness) at any sharding.
	Harness harness.Config
	// Procs is how many worker transports the pool keeps via Spawn.
	Procs int
	// Spawn creates the i'th worker transport (typically a subprocess
	// running `fsbench -worker`). Required. It may be called from
	// several goroutines at once.
	Spawn func(i int) (io.ReadWriteCloser, error)
	// Cache is the optional on-disk result cache; hits skip execution
	// entirely and finished cells are stored as they arrive, so an
	// interrupted sweep resumes where it stopped.
	Cache *Cache
	// MaxAttempts bounds how many workers one cell may be assigned to
	// before it fails (default 3): a cell that kills every worker it
	// touches must not loop forever.
	MaxAttempts int
	// MaxRespawns bounds how many workers may die in a row, with no
	// cell served between the deaths, and still be replaced; a failed
	// spawn counts as a death. 0 means the default of 2×Procs; negative
	// disables replacement. A pool that keeps serving survives any
	// number of scattered crashes, while a spawn command that always
	// crashes stops at the bound.
	MaxRespawns int
	// CellTimeout bounds how long one assigned cell may go without a
	// reply (0 = wait forever). A worker that exceeds it — a wedged
	// subprocess — is retired exactly like a dead one: its transport is
	// closed and the cell is retried on another worker. The timeout must
	// comfortably exceed the slowest cell's runtime; a too-tight value
	// merely burns attempts (MaxAttempts still bounds the damage).
	CellTimeout time.Duration
	// Log receives human-readable progress diagnostics (optional).
	Log io.Writer
	// ProgressEvery emits a periodic progress line to Log while the
	// sweep runs (done/pending/retried counts and the cache hit rate).
	// 0 disables it — the default, so batch logs stay quiet.
	ProgressEvery time.Duration
}

// Run executes a full sharded sweep: enumerate cells, run them through
// runCells, then merge by preloading a runner and replaying the
// experiment assembly in this process.
func Run(cfg Config) (*harness.Results, Stats, error) {
	cells := harness.EnumerateCells(cfg.Harness)
	results, stats, err := runCells(cfg, cells)
	if err != nil {
		return nil, stats, err
	}

	r := harness.NewRunner(cfg.Harness.Workers)
	for _, cell := range cells {
		res, ok := results[cell.ID()]
		if !ok {
			return nil, stats, fmt.Errorf("sweep: cell %s has no result after sweep", cell.ID())
		}
		if err := r.Preload(cell, res); err != nil {
			return nil, stats, fmt.Errorf("sweep: preloading %s: %w", cell.ID(), err)
		}
	}
	return harness.RunAllWith(r, cfg.Harness), stats, nil
}

// runCells runs a cell list as one job on a private JobQueue whose
// executor is a ProcPool of cfg.Procs workers, and returns the finished
// results keyed by cell ID. The queue collapses duplicate cells and
// serves what the cache holds; the pool starts on the first cache miss,
// so a warm re-sweep spawns no worker at all.
func runCells(cfg Config, cells []harness.Cell) (map[string]harness.CellResult, Stats, error) {
	if cfg.Procs <= 0 || cfg.Spawn == nil {
		return nil, Stats{}, fmt.Errorf("sweep: need Procs > 0 and a Spawn function, got Procs = %d", cfg.Procs)
	}
	pool := newProcPool(cfg)
	defer pool.Close()
	q := NewJobQueue(QueueConfig{Workers: cfg.Procs, MaxQueuedCells: len(cells),
		Cache: cfg.Cache, Exec: pool.Exec, Log: cfg.Log})
	job, err := q.Submit(JobSpec{Label: "sweep", Cells: cells})
	if err != nil {
		return nil, Stats{}, err
	}

	stats := func() Stats {
		qs, ps := q.Stats(), pool.stats()
		return Stats{Cells: len(job.Cells), Cached: int(qs.CellsCached), Executed: int(qs.CellsExecuted),
			Retries: ps.retries, Workers: ps.workers, Respawns: ps.respawns}
	}
	var progress <-chan time.Time
	if cfg.ProgressEvery > 0 && cfg.Log != nil {
		tick := time.NewTicker(cfg.ProgressEvery)
		defer tick.Stop()
		progress = tick.C
	}
	for waiting := true; waiting; {
		select {
		case <-job.Done():
			waiting = false
		case <-progress:
			done, total := job.Progress()
			fmt.Fprintln(cfg.Log, progressLine(stats(), total-done, pool.stats().live))
		}
	}

	if err := job.Err(); err != nil {
		return nil, stats(), err
	}
	return job.Results(), stats(), nil
}

// progressLine formats the periodic -progress diagnostic. The cache hit
// rate is clamped to 0% when no cells are known yet — a bare ratio would
// print NaN% before the first cell completes (0/0).
func progressLine(stats Stats, remaining, live int) string {
	hitRate := 0.0
	if stats.Cells > 0 {
		hitRate = 100 * float64(stats.Cached) / float64(stats.Cells)
	}
	return fmt.Sprintf("sweep: progress: %d/%d cells done (%d cached, %.0f%% hit rate), %d pending, %d retries, %d workers live",
		stats.Cells-remaining, stats.Cells, stats.Cached, hitRate,
		remaining, stats.Retries, live)
}
