package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
)

// TestMain lets this test binary stand in for cheetahd as a pool
// worker: a `-worker` invocation goes to run, as in the daemon's binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// childPIDs lists the processes whose parent is this one, from /proc.
func childPIDs(t *testing.T) map[int]bool {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	self := strconv.Itoa(os.Getpid())
	kids := map[int]bool{}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		// After the parenthesized command name: state, then ppid.
		s := string(stat)
		if f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:]); len(f) > 1 && f[1] == self {
			kids[pid] = true
		}
	}
	return kids
}

// lockedBuffer is a strings.Builder safe for the pool's log lines and
// the workers' stderr copiers to write at once.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestWorkerPoolLogsLostWorkers: the -worker-procs pool logs to the
// daemon's stderr, so a SIGKILLed worker is reported there the way
// fsbench reports one, as "worker N lost", and its replacement serves
// the cell.
func TestWorkerPoolLogsLostWorkers(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("finds the worker process through /proc")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	before := childPIDs(t)
	var stderr lockedBuffer
	pool, err := newWorkerPool(1, exe, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var worker *os.Process
	for pid := range childPIDs(t) {
		if !before[pid] {
			if worker, err = os.FindProcess(pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if worker == nil {
		t.Fatal("no worker process found")
	}
	if err := worker.Kill(); err != nil {
		t.Fatal(err)
	}
	cell := harness.Cell{Kind: harness.KindNative, Workload: "figure1", Threads: 2, Cores: 8, Scale: 0.05}
	if _, err := pool.Exec(cell); err != nil {
		t.Fatalf("Exec after the worker was killed: %v", err)
	}
	if log := stderr.String(); !strings.Contains(log, "sweep: worker 0 lost") {
		t.Errorf("stderr does not report the killed worker:\n%s", log)
	}
}
