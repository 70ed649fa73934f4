package sweep

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// ProcPool executes cells on a fixed number of persistent worker
// transports speaking the sweep wire protocol — typically subprocesses
// via SpawnWorkerProc, so simulations run outside the caller's heap and
// a crashed cell kills a worker, not the caller. Its Exec method plugs
// into QueueConfig.Exec; it is the executor behind cheetahd's
// -worker-procs.
//
// The pool owns the one worker-failure policy (see poolConfig):
//   - a worker whose transport fails is retired (its transport closed)
//     and the cell is retried on another worker, up to maxAttempts
//     workers per cell; a worker found dead before the cell reached it
//     costs no attempt;
//   - a retired worker is replaced by a fresh spawn while no more than
//     maxRespawns workers have died in a row with no cell served
//     between the deaths;
//   - once no worker is live and none can be spawned, every waiting
//     and later Exec fails with an error that names the lost workers.
//
// A cell-level error reply fails its cell at once: the worker survived,
// and a deterministic cell fails the same way on any worker.
type ProcPool struct {
	cfg poolConfig

	// free holds idle workers, at most procs of them; it is never
	// closed (in-flight Execs return workers to it at any time). stop is
	// closed once, by Close or when the last worker is lost for good,
	// and stopErr says which.
	free chan *poolWorker
	stop chan struct{}

	mu       sync.Mutex
	stopErr  error
	workers  map[*poolWorker]bool // live workers, idle or busy
	spawning int                  // respawns in progress, counted as live
	nspawned int
	// deaths counts workers lost since a cell was last served: the
	// quantity maxRespawns bounds.
	deaths int
	counts poolStats
}

// poolConfig is a pool's size, spawn function and failure policy.
// NewProcPool fills the policy with its defaults; only tests set it.
type poolConfig struct {
	// procs is how many workers the pool keeps live.
	procs int
	// spawn creates the i'th worker transport. It may be called from
	// several goroutines at once.
	spawn func(i int) (io.ReadWriteCloser, error)
	// log receives worker losses, respawns and retries (optional).
	log io.Writer
	// maxAttempts bounds how many workers one cell may be assigned to
	// before it fails (default 3): a cell that kills every worker it
	// touches must not loop forever.
	maxAttempts int
	// maxRespawns bounds how many workers may die in a row, with no
	// cell served between the deaths, and still be replaced; a failed
	// spawn counts as a death (default 2×procs). A pool that keeps
	// serving survives any number of scattered crashes, while a spawn
	// command that always crashes stops at the bound.
	maxRespawns int
}

// poolStats is the pool's lifetime accounting.
type poolStats struct {
	workers  int // workers that completed the handshake
	respawns int // replacements spawned after deaths
	retries  int // cells reassigned after their worker died
	lost     int // workers retired dead
}

// poolWorker is one live transport plus its buffered framing state.
type poolWorker struct {
	id  int
	t   io.ReadWriteCloser
	br  *bufio.Reader
	bw  *bufio.Writer
	seq uint64
}

// NewProcPool spawns n workers and verifies each one's hello handshake,
// under the default failure policy (see poolConfig). It logs worker
// losses, respawns and retries to log (optional). Failure to bring up
// any worker fails construction; a pool that starts degraded would
// silently serve with less parallelism than the operator asked for.
func NewProcPool(n int, spawn func(i int) (io.ReadWriteCloser, error), log io.Writer) (*ProcPool, error) {
	return newProcPool(poolConfig{procs: n, spawn: spawn, log: log})
}

// newProcPool is NewProcPool under cfg's failure policy, with zero
// fields at their defaults.
func newProcPool(cfg poolConfig) (*ProcPool, error) {
	if cfg.procs <= 0 {
		return nil, fmt.Errorf("sweep: pool needs at least one worker")
	}
	if cfg.maxAttempts <= 0 {
		cfg.maxAttempts = 3
	}
	if cfg.maxRespawns <= 0 {
		cfg.maxRespawns = 2 * cfg.procs
	}
	p := &ProcPool{
		cfg:     cfg,
		free:    make(chan *poolWorker, cfg.procs),
		stop:    make(chan struct{}),
		workers: map[*poolWorker]bool{},
	}
	for i := 0; i < cfg.procs; i++ {
		w, err := p.spawnWorker()
		if err != nil {
			p.Close()
			return nil, err
		}
		p.free <- w
	}
	return p, nil
}

// spawnWorker brings up one worker through its handshake.
func (p *ProcPool) spawnWorker() (*poolWorker, error) {
	p.mu.Lock()
	i := p.nspawned
	p.nspawned++
	p.mu.Unlock()
	t, err := p.cfg.spawn(i)
	if err != nil {
		return nil, fmt.Errorf("sweep: spawning pool worker %d: %w", i, err)
	}
	w := &poolWorker{id: i, t: t, br: bufio.NewReader(t), bw: bufio.NewWriter(t)}
	hello, err := ReadMessage(w.br)
	if err != nil {
		t.Close()
		return nil, fmt.Errorf("sweep: pool worker %d handshake: %w", i, err)
	}
	if hello.Type != MsgHello || hello.Proto != ProtoVersion {
		t.Close()
		return nil, fmt.Errorf("sweep: pool worker %d handshake: got %q proto %q, want %q",
			i, hello.Type, hello.Proto, ProtoVersion)
	}
	p.mu.Lock()
	if err := p.stopErr; err != nil {
		p.mu.Unlock()
		t.Close()
		return nil, err
	}
	p.workers[w] = true
	p.counts.workers++
	p.mu.Unlock()
	mWorkersSpawned.Inc()
	mWorkersLive.Add(1)
	obs.Event("sweep", "worker-up", w.id, nil)
	return w, nil
}

// Exec runs one cell on the next free worker. A worker that dies
// holding the cell is retired and the cell retried on another, up to
// maxAttempts workers; a worker found dead when the cell is handed to
// it is retired without costing the cell an attempt. A cell-level
// MsgError comes back as an error with the worker intact.
func (p *ProcPool) Exec(cell harness.Cell) (harness.CellResult, error) {
	var err error
	for attempts := 0; attempts < p.cfg.maxAttempts; {
		var w *poolWorker
		select {
		case w = <-p.free:
		case <-p.stop:
			p.mu.Lock()
			defer p.mu.Unlock()
			return harness.CellResult{}, p.stopErr
		}
		if err = p.assign(w, cell); err != nil {
			p.retire(w, err)
			continue
		}
		if attempts++; attempts > 1 {
			p.mu.Lock()
			p.counts.retries++
			p.mu.Unlock()
			mCellsRequeued.Inc()
			p.logf("sweep: retrying %s on worker %d (%v)", cell.ID(), w.id, err)
		}
		var res harness.CellResult
		var dead bool
		res, err, dead = p.await(w, cell)
		if !dead {
			p.release(w)
			return res, err
		}
		p.retire(w, err)
	}
	return harness.CellResult{}, fmt.Errorf("sweep: cell %s failed on %d workers, last: %w",
		cell.ID(), p.cfg.maxAttempts, err)
}

// release returns a worker that served a cell to the idle set — or
// closes it if the pool stopped while the worker was out serving.
func (p *ProcPool) release(w *poolWorker) {
	p.mu.Lock()
	p.deaths = 0
	closed := p.stopErr != nil
	p.mu.Unlock()
	if closed {
		w.t.Close()
		return
	}
	p.free <- w
}

// retire closes a dead worker's transport and replaces it while the
// respawn budget lasts. When that leaves no live worker, the pool is
// gone: every waiting and later Exec fails with the cause.
func (p *ProcPool) retire(w *poolWorker, cause error) {
	w.t.Close()
	p.mu.Lock()
	if !p.workers[w] {
		p.mu.Unlock()
		return // Close already took it
	}
	delete(p.workers, w)
	p.deaths++
	p.counts.lost++
	p.mu.Unlock()
	mWorkersLost.Inc()
	mWorkersLive.Add(-1)
	obs.Event("sweep", "worker-down", w.id, nil)
	p.logf("sweep: worker %d lost: %v", w.id, cause)
	for {
		p.mu.Lock()
		if p.stopErr != nil || p.deaths > p.cfg.maxRespawns {
			if len(p.workers) == 0 && p.spawning == 0 && p.stopErr == nil {
				p.stopErr = fmt.Errorf("sweep: all pool workers are gone: %d lost, worker %d last; "+
					"%d deaths in a row with no cell served spent the respawn budget of %d; last cause: %v",
					p.counts.lost, w.id, p.deaths, p.cfg.maxRespawns, cause)
				close(p.stop)
			}
			p.mu.Unlock()
			return
		}
		// A spawn in progress counts as live, so a concurrent retire
		// does not declare the pool gone while a replacement is coming.
		p.spawning++
		p.mu.Unlock()
		nw, err := p.spawnWorker()
		p.mu.Lock()
		p.spawning--
		if err == nil {
			p.counts.respawns++
		} else {
			p.deaths++
		}
		deaths := p.deaths
		p.mu.Unlock()
		if err == nil {
			mWorkersRespawned.Inc()
			p.logf("sweep: respawned worker %d (deaths in a row: %d of %d)", nw.id, deaths, p.cfg.maxRespawns)
			p.free <- nw // cannot block: live workers never exceed procs
			return
		}
		p.logf("sweep: %v", err)
		cause = err
	}
}

// assign sends one run frame to w. An error means the worker's
// transport was already unusable: the worker died before the cell
// reached it.
func (p *ProcPool) assign(w *poolWorker, cell harness.Cell) error {
	w.seq++
	if err := WriteMessage(w.bw, &Message{Type: MsgRun, Seq: w.seq, Cell: &cell}); err != nil {
		return fmt.Errorf("sweep: pool assignment: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("sweep: pool assignment: %w", err)
	}
	return nil
}

// await reads w's reply to the cell just assigned. dead reports that
// the worker died holding the cell (as opposed to a clean cell-level
// error).
func (p *ProcPool) await(w *poolWorker, cell harness.Cell) (res harness.CellResult, err error, dead bool) {
	start := time.Now()
	defer func() {
		if obs.TracingEnabled() {
			obs.Span("sweep", "cell", start, time.Now(), w.id, map[string]any{"cell": cell.ID(), "ok": err == nil})
		}
	}()
	m, err := ReadMessage(w.br)
	if err != nil {
		return harness.CellResult{}, fmt.Errorf("sweep: pool reply: %w", err), true
	}
	if m.Seq != w.seq || (m.Type != MsgResult && m.Type != MsgError) {
		return harness.CellResult{}, fmt.Errorf("sweep: pool protocol violation: %q frame seq %d, want reply to seq %d",
			m.Type, m.Seq, w.seq), true
	}
	if m.Type == MsgError {
		return harness.CellResult{}, fmt.Errorf("sweep: cell failed on pool worker: %s", m.Error), false
	}
	mCellSeconds.Observe(time.Since(start).Seconds())
	return *m.Result, nil, false
}

// Close fails waiting and future Exec calls and closes every worker's
// transport, busy ones included, so no worker outlives the pool: a
// worker sees EOF on its stdin and exits, and closing a subprocess
// transport reaps the process, killing it if it lingers.
func (p *ProcPool) Close() error {
	p.mu.Lock()
	workers := p.workers
	p.workers = map[*poolWorker]bool{}
	if p.stopErr == nil {
		p.stopErr = errors.New("sweep: pool closed")
		close(p.stop)
	}
	p.mu.Unlock()
	mWorkersLive.Add(-int64(len(workers)))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.t.Close()
		}()
	}
	wg.Wait()
	return nil
}

// stats returns a snapshot of the pool's accounting.
func (p *ProcPool) stats() poolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts
}

func (p *ProcPool) logf(format string, args ...any) { logf(p.cfg.log, format, args...) }
