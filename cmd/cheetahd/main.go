// Command cheetahd serves false-sharing detection as a long-lived HTTP
// service: clients POST a recorded trace (or a named workload and
// parameters) to /v1/jobs, follow progress over Server-Sent Events,
// and fetch a report that is byte-identical to what the cheetah CLI
// prints for the same input. Jobs multiplex onto a bounded executor
// pool with per-tenant concurrency budgets; identical cells dedupe
// through in-flight singleflight and the content-addressed result
// cache, so a popular trace costs one simulation no matter how many
// clients submit it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cheetahd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9139", "listen address for the API, metrics and pprof")
	spool := fs.String("spool", "", "directory for uploaded traces (default: a temp directory)")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory (empty = no cache)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries past this size (0 = unbounded; requires -cache-dir)")
	workers := fs.Int("workers", 0, "concurrent cell executions (0 = GOMAXPROCS)")
	workerProcs := fs.Int("worker-procs", 0,
		"run cells on this many persistent worker subprocesses instead of in-process goroutines")
	queueDepth := fs.Int("queue-depth", 256, "max admitted-but-unfinished cells before submissions get 429")
	tenantBudget := fs.Int("tenant-budget", 0, "max concurrent cells per tenant (0 = no per-tenant bound)")
	maxUpload := fs.Int64("max-upload-bytes", 256<<20, "largest accepted trace upload")
	jobTTL := fs.Duration("job-ttl", time.Hour,
		"evict finished jobs from the job table after this retention (0 = retain for the life of the process)")
	worker := fs.Bool("worker", false, "run as a pool worker on stdin/stdout (internal; used by -worker-procs)")
	spanLog := fs.String("span-log", "", "append structured span/event records (JSONL) to this file")
	chromeTrace := fs.String("chrome-trace", "", "write a Chrome trace-event file to this path")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *cacheMaxBytes < 0 {
		fmt.Fprintf(stderr, "cheetahd: -cache-max-bytes must be >= 0\n")
		return 2
	}
	if *cacheMaxBytes != 0 && *cacheDir == "" {
		fmt.Fprintf(stderr, "cheetahd: -cache-max-bytes requires -cache-dir\n")
		return 2
	}

	if *worker {
		if err := sweep.Serve(os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "cheetahd worker: %v\n", err)
			return 1
		}
		return 0
	}

	// Tracing wires straight to the obs tracer rather than through
	// obs.Setup: Setup's signal handler finalizes trace files and then
	// re-raises the signal, which is right for a CLI sweep but would cut
	// short the daemon's own graceful drain below. Metrics need no
	// address of their own because the API mux serves them.
	tracer, err := obs.OpenTracer(*spanLog, *chromeTrace)
	if err != nil {
		fmt.Fprintf(stderr, "cheetahd: %v\n", err)
		return 1
	}
	obs.SetTracer(tracer)
	defer func() {
		obs.SetTracer(nil)
		if tracer != nil {
			tracer.Close()
		}
	}()
	obs.RegisterRuntimeMetrics(obs.Default())

	spoolDir := *spool
	if spoolDir == "" {
		dir, err := os.MkdirTemp("", "cheetahd-spool-")
		if err != nil {
			fmt.Fprintf(stderr, "cheetahd: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		spoolDir = dir
	} else if err := os.MkdirAll(spoolDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "cheetahd: %v\n", err)
		return 1
	}

	qcfg := sweep.QueueConfig{
		Workers:        *workers,
		MaxQueuedCells: *queueDepth,
		TenantBudget:   *tenantBudget,
		Log:            stderr,
	}
	if qcfg.Workers <= 0 {
		qcfg.Workers = runtime.GOMAXPROCS(0)
	}
	if *cacheDir != "" {
		cache, err := sweep.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(stderr, "cheetahd: opening cache: %v\n", err)
			return 1
		}
		cache.SetMaxBytes(*cacheMaxBytes)
		qcfg.Cache = cache
	}

	// Execution backend: fresh in-process systems per cell by default
	// (harness.RunCell — never the process-wide memoizing runner), or a
	// persistent subprocess pool so simulations live outside the
	// daemon's heap and a crashing cell kills a worker, not the service.
	// The pool's failure policy runs at its defaults: a cell whose worker
	// dies is retried on another, and dead workers are replaced while
	// workers keep serving cells between deaths.
	var pool *sweep.ProcPool
	if *workerProcs > 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(stderr, "cheetahd: %v\n", err)
			return 1
		}
		pool, err = newWorkerPool(*workerProcs, exe, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "cheetahd: %v\n", err)
			return 1
		}
		defer pool.Close()
		qcfg.Exec = pool.Exec
	}

	queue := sweep.NewJobQueue(qcfg)
	srv := newServer(queue, spoolDir, *maxUpload, *jobTTL, stderr)
	stopGC := srv.startGC()
	defer stopGC()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "cheetahd: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.mux(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "cheetahd: serving detection on http://%s (workers=%d, queue-depth=%d)\n",
		ln.Addr(), qcfg.Workers, *queueDepth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "cheetahd: serve: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stderr, "cheetahd: %v: draining\n", s)
	}

	// Graceful drain: stop accepting, let in-flight requests and running
	// jobs finish within a bounded window.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "cheetahd: http shutdown: %v\n", err)
	}
	if err := queue.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "cheetahd: queue shutdown: %v\n", err)
		return 1
	}
	// Every job has finished; let each release its spooled upload.
	srv.releases.Wait()
	return 0
}

// newWorkerPool starts n worker subprocesses, exe re-executed with
// -worker. The pool logs worker losses, respawns and retries to stderr,
// where the workers' own diagnostics go too.
func newWorkerPool(n int, exe string, stderr io.Writer) (*sweep.ProcPool, error) {
	return sweep.NewProcPool(n, func(int) (io.ReadWriteCloser, error) {
		return sweep.SpawnWorkerProc(exe, []string{"-worker"}, nil, stderr)
	}, stderr)
}
