package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cheetah "repro"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeTrace records a tiny figure1 run to a trace file and returns
// its path — the same recipe the harness trace tests use.
func writeTrace(t *testing.T, dir, name string, scale float64) string {
	t.Helper()
	w, _ := workload.ByName("figure1")
	sys := cheetah.New(cheetah.Config{Cores: 4})
	prog := w.Build(sys, workload.Params{Threads: 2, Scale: scale})
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.NewTextEncoder(f), sys.Heap(), sys.Globals())
	sys.RunWith(prog, exec.Probe(rec))
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// cliReplayReport computes the bytes `cheetah -replay <path>` prints:
// the reference for the gateway's byte-identity invariant.
func cliReplayReport(t *testing.T, path string) string {
	t.Helper()
	rp, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sys := cheetah.New(cheetah.Config{Cores: rp.Cores})
	if err := rp.Prepare(sys.Heap(), sys.Globals()); err != nil {
		t.Fatal(err)
	}
	report, res := sys.Profile(rp.Program(), cheetah.ProfileOptions{PMU: harness.DetectionPMU()})
	return harness.RenderDetectionReport(report, res, false, false)
}

// testGateway boots a full gateway (queue + handlers) on httptest.
func testGateway(t *testing.T, qcfg sweep.QueueConfig) (*httptest.Server, *sweep.JobQueue) {
	t.Helper()
	if qcfg.Workers == 0 {
		qcfg.Workers = 4
	}
	queue := sweep.NewJobQueue(qcfg)
	srv := newServer(queue, t.TempDir(), 64<<20, 0, nil)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts, queue
}

// submitTrace uploads a trace file and returns the job id.
func submitTrace(t *testing.T, ts *httptest.Server, path, tenant string) string {
	t.Helper()
	id, status, body := trySubmitTrace(t, ts, path, tenant)
	if status != http.StatusAccepted {
		t.Fatalf("upload: status %d, body %s", status, body)
	}
	return id
}

func trySubmitTrace(t *testing.T, ts *httptest.Server, path, tenant string) (id string, status int, body string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, string(raw)
	}
	var out map[string]string
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("submit response: %v (%s)", err, raw)
	}
	return out["id"], resp.StatusCode, string(raw)
}

// fetchReport polls the report endpoint until the job finishes.
func fetchReport(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/report")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return string(body)
		case http.StatusAccepted:
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", id)
			}
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("report for %s: status %d, body %s", id, resp.StatusCode, body)
		}
	}
}

// TestUploadedTraceReportMatchesCLIReplay is the gateway's headline
// invariant: the report fetched over HTTP for an uploaded trace is
// byte-identical to what `cheetah -replay` prints for the same file.
func TestUploadedTraceReportMatchesCLIReplay(t *testing.T) {
	t.Parallel()
	path := writeTrace(t, t.TempDir(), "a.trace", 0.05)
	want := cliReplayReport(t, path)

	ts, _ := testGateway(t, sweep.QueueConfig{})
	id := submitTrace(t, ts, path, "")
	got := fetchReport(t, ts, id)
	if got != want {
		t.Errorf("HTTP report diverges from CLI replay\n--- CLI ---\n%s\n--- HTTP ---\n%s", want, got)
	}
}

// TestConcurrentIdenticalUploadsDedupe: N clients upload the same trace
// at once; every report is byte-identical and the simulation runs far
// fewer times than N (in-flight dedupe plus the result cache).
func TestConcurrentIdenticalUploadsDedupe(t *testing.T) {
	t.Parallel()
	path := writeTrace(t, t.TempDir(), "a.trace", 0.05)
	want := cliReplayReport(t, path)

	var executions atomic.Int64
	qcfg := sweep.QueueConfig{
		Workers: 8,
		Exec: func(c harness.Cell) (harness.CellResult, error) {
			executions.Add(1)
			return harness.RunCell(c)
		},
	}
	ts, queue := testGateway(t, qcfg)

	const n = 30
	var wg sync.WaitGroup
	reports := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := submitTrace(t, ts, path, fmt.Sprintf("tenant-%d", i%3))
			reports[i] = fetchReport(t, ts, id)
		}(i)
	}
	wg.Wait()

	for i, got := range reports {
		if got != want {
			t.Fatalf("report %d diverges from CLI replay", i)
		}
	}
	// The uploads all content-address to one cell. Without a cache every
	// concurrent wave dedupes to a single in-flight execution; waves that
	// miss the overlap re-execute, so allow a little slack — but nowhere
	// near one execution per job.
	if got := executions.Load(); got > 3 {
		t.Errorf("cell executed %d times for %d identical jobs, want <= 3", got, n)
	}
	s := queue.Stats()
	if s.CellsExecuted+s.CellsDeduped+s.CellsCached != n {
		t.Errorf("stats don't account for every job: %+v", s)
	}
}

// TestNamedWorkloadJob: a JSON submission for a registered workload
// produces the same bytes as the CLI run of that workload.
func TestNamedWorkloadJob(t *testing.T) {
	t.Parallel()
	ts, _ := testGateway(t, sweep.QueueConfig{})
	body := `{"workload":"figure1","threads":2,"scale":0.05}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var out map[string]string
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	got := fetchReport(t, ts, out["id"])

	// Reference: what `cheetah -threads 2 -scale 0.05 figure1` prints.
	w, _ := workload.ByName("figure1")
	sys := cheetah.New(cheetah.Config{})
	prog := w.Build(sys, workload.Params{Threads: 2, Scale: 0.05})
	report, res := sys.Profile(prog, cheetah.ProfileOptions{PMU: harness.DetectionPMU()})
	want := harness.RenderDetectionReport(report, res, false, false)
	if got != want {
		t.Errorf("named-workload report diverges from CLI\n--- CLI ---\n%s\n--- HTTP ---\n%s", want, got)
	}
}

// TestMachineWorkloadJob: a submission naming a machine preset
// simulates that machine — the report matches a local run under the
// same model and differs from the default-machine report. 32 threads so
// the hot data spans multiple lines under both geometries.
func TestMachineWorkloadJob(t *testing.T) {
	t.Parallel()
	ts, _ := testGateway(t, sweep.QueueConfig{})
	body := `{"workload":"figure1","threads":32,"scale":0.05,"machine":"line128"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var out map[string]string
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	got := fetchReport(t, ts, out["id"])

	reference := func(name string) string {
		cfg := cheetah.Config{}
		if m, ok := machine.Preset(name); ok && name != "" {
			cfg.Machine = m
		}
		w, _ := workload.ByName("figure1")
		sys := cheetah.New(cfg)
		prog := w.Build(sys, workload.Params{Threads: 32, Scale: 0.05})
		report, res := sys.Profile(prog, cheetah.ProfileOptions{PMU: harness.DetectionPMU()})
		return harness.RenderDetectionReport(report, res, false, false)
	}
	if want := reference("line128"); got != want {
		t.Errorf("line128 gateway report diverges from local run\n--- local ---\n%s\n--- HTTP ---\n%s", want, got)
	}
	if got == reference("") {
		t.Error("line128 gateway report is identical to the default machine's; the preset never reached the simulator")
	}
}

// TestBadSubmissionsRejected: garbage uploads and unknown workloads get
// a 400 before touching the queue; unknown jobs 404.
func TestBadSubmissionsRejected(t *testing.T) {
	t.Parallel()
	ts, queue := testGateway(t, sweep.QueueConfig{})

	garbage := filepath.Join(t.TempDir(), "garbage.trace")
	if err := os.WriteFile(garbage, []byte("this is not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, status, body := trySubmitTrace(t, ts, garbage, "")
	if status != http.StatusBadRequest {
		t.Errorf("garbage upload: status %d (%s), want 400", status, body)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"no-such-workload"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"figure1","threads":2,"machine":"cray1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown machine preset: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/j999999/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	if s := queue.Stats(); s.Submitted != 0 {
		t.Errorf("rejected submissions reached the queue: %+v", s)
	}

	// A trace whose index is valid but whose records fail their checksum
	// passes upload validation (the index alone) and fails in replay.
	// The job must fail naming the checksum, and the daemon must live on
	// to serve the next upload.
	var buf bytes.Buffer
	enc := trace.NewIndexedEncoder(&buf)
	if err := trace.WriteSynthetic(enc, trace.SynthConfig{Accesses: 20000, Threads: 4}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/3] ^= 0xFF
	corrupt := filepath.Join(t.TempDir(), "corrupt.trace")
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	id := submitTrace(t, ts, corrupt, "")
	st := waitStatus(t, ts, id)
	if st.State != string(sweep.JobFailed) || !strings.Contains(st.Error, "checksum") {
		t.Errorf("corrupt upload: job %s ended %s with error %q, want failed naming the checksum", id, st.State, st.Error)
	}
	good := writeTrace(t, t.TempDir(), "good.trace", 0.02)
	if got, want := fetchReport(t, ts, submitTrace(t, ts, good, "")), cliReplayReport(t, good); got != want {
		t.Error("upload after a failed job: report differs from the CLI replay")
	}
}

// waitStatus polls a job's status until it reaches a terminal state.
func waitStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == string(sweep.JobDone) || st.State == string(sweep.JobFailed) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (state %s)", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueFullReturns429: submissions beyond the cell bound get 429
// with the queue intact.
func TestQueueFullReturns429(t *testing.T) {
	t.Parallel()
	path := writeTrace(t, t.TempDir(), "a.trace", 0.02)
	block := make(chan struct{})
	defer close(block)
	qcfg := sweep.QueueConfig{
		Workers:        1,
		MaxQueuedCells: 1,
		Exec: func(c harness.Cell) (harness.CellResult, error) {
			<-block
			return harness.RunCell(c)
		},
	}
	ts, _ := testGateway(t, qcfg)
	submitTrace(t, ts, path, "")

	// The queue is at its bound with the first cell; a job for a
	// DIFFERENT cell must bounce with 429 (an identical upload would
	// dedupe, which is admission too).
	other := writeTrace(t, t.TempDir(), "b.trace", 0.03)
	_, status, body := trySubmitTrace(t, ts, other, "")
	if status != http.StatusTooManyRequests {
		t.Errorf("over-bound submit: status %d (%s), want 429", status, body)
	}
}

// TestJobTTLEvictsFinishedJobs: after GC collects a finished job, its
// report and SSE routes 404 like a job that never existed, while a
// still-running job survives the sweep untouched.
func TestJobTTLEvictsFinishedJobs(t *testing.T) {
	t.Parallel()
	path := writeTrace(t, t.TempDir(), "a.trace", 0.02)
	block := make(chan struct{})
	defer close(block)
	queue := sweep.NewJobQueue(sweep.QueueConfig{
		Workers: 2,
		Exec: func(c harness.Cell) (harness.CellResult, error) {
			if strings.Contains(c.Workload, "b.trace") {
				<-block
			}
			return harness.RunCell(c)
		},
	})
	// A zero TTL evicts every terminal job on the next sweep — the
	// deterministic stand-in for "the retention window has passed".
	srv := newServer(queue, t.TempDir(), 64<<20, 0, nil)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	finished := submitTrace(t, ts, path, "")
	fetchReport(t, ts, finished) // waits until the job is done
	running := submitTrace(t, ts, writeTrace(t, t.TempDir(), "b.trace", 0.03), "")

	srv.gc()

	for _, route := range []string{"/report", "/events", ""} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + finished + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s for evicted job: status %d, want 404", route, resp.StatusCode)
		}
	}
	if _, ok := queue.Get(running); !ok {
		t.Errorf("GC evicted the still-running job %s", running)
	}
	if s := queue.Stats(); s.JobsEvicted != 1 {
		t.Errorf("JobsEvicted = %d, want 1", s.JobsEvicted)
	}
	srv.mu.Lock()
	if _, ok := srv.renderOpts[finished]; ok {
		t.Errorf("render options for evicted job %s not pruned", finished)
	}
	srv.mu.Unlock()
}

// TestEventsStreamSSE: the events endpoint speaks SSE and ends with the
// job's terminal event.
func TestEventsStreamSSE(t *testing.T) {
	t.Parallel()
	path := writeTrace(t, t.TempDir(), "a.trace", 0.02)
	ts, _ := testGateway(t, sweep.QueueConfig{})
	id := submitTrace(t, ts, path, "")

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events Content-Type = %q", ct)
	}
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if k, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 || kinds[len(kinds)-1] != "done" {
		t.Errorf("SSE event kinds = %v, want a sequence ending in done", kinds)
	}
	if kinds[0] != "queued" {
		t.Errorf("SSE stream starts with %q, want queued (history replay)", kinds[0])
	}
}
