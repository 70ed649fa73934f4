package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// server is the cheetahd HTTP surface: job submission, status, SSE
// progress and report retrieval in front of a sweep.JobQueue, plus the
// obs routes (/metrics, /debug/pprof) on the same mux. Every job is
// one profiled harness cell, so a job's report is exactly what the
// cheetah CLI prints for the same input — byte for byte, the gateway's
// headline invariant.
type server struct {
	queue     *sweep.JobQueue
	spoolDir  string
	maxUpload int64
	// jobTTL is how long finished (done or failed) jobs stay queryable;
	// 0 retains them for the life of the process.
	jobTTL time.Duration
	log    io.Writer

	// renderOpts remembers each job's report rendering flags; the cell
	// result itself is render-agnostic.
	mu         sync.Mutex
	renderOpts map[string]renderOpts

	// spooled counts, by content hash, the unfinished jobs that replay
	// each spooled upload; the last one to finish removes the file.
	// spoolMu also covers spooling, so a file is never removed between
	// an upload's reuse of it and its count. releases tracks the
	// goroutines that release an admitted job's count once it finishes.
	spoolMu  sync.Mutex
	spooled  map[string]int
	releases sync.WaitGroup
}

type renderOpts struct {
	words, candidates bool
}

// jobSpec is the JSON body of a named-workload submission.
type jobSpec struct {
	Workload   string  `json:"workload"`
	Threads    int     `json:"threads"`
	Scale      float64 `json:"scale"`
	Fixed      bool    `json:"fixed"`
	Words      bool    `json:"words"`
	Candidates bool    `json:"candidates"`
	// Machine selects the machine-model preset the cell simulates
	// (machine.Names; empty = the canonical opteron48). Part of cell
	// identity: the same workload under two models is two cells.
	Machine string `json:"machine"`
}

// jobStatus is the JSON shape of a job in status and list responses.
type jobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Label  string `json:"label"`
	State  string `json:"state"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Error  string `json:"error,omitempty"`
}

func newServer(queue *sweep.JobQueue, spoolDir string, maxUpload int64, jobTTL time.Duration, log io.Writer) *server {
	return &server{
		queue:      queue,
		spoolDir:   spoolDir,
		maxUpload:  maxUpload,
		jobTTL:     jobTTL,
		log:        log,
		renderOpts: make(map[string]renderOpts),
		spooled:    make(map[string]int),
	}
}

// gc evicts finished jobs older than the retention TTL from the job
// table and drops their render options. Evicted jobs 404 afterwards;
// their cell results survive in the shared cache.
func (s *server) gc() {
	ids := s.queue.GC(s.jobTTL)
	if len(ids) == 0 {
		return
	}
	s.mu.Lock()
	for _, id := range ids {
		delete(s.renderOpts, id)
	}
	s.mu.Unlock()
	s.logf("cheetahd: evicted %d finished jobs past the %v retention", len(ids), s.jobTTL)
}

// startGC runs gc periodically until the returned stop function is
// called. A zero TTL disables collection entirely.
func (s *server) startGC() (stop func()) {
	if s.jobTTL <= 0 {
		return func() {}
	}
	// Sweep a few times per TTL so eviction lag stays a fraction of the
	// retention window, but never busier than once a second.
	interval := s.jobTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.gc()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

// mux builds the full route table, observability included — one port
// serves the API, Prometheus metrics and pprof.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	obs.Register(mux, obs.Default())
	return mux
}

func (s *server) logf(format string, args ...any) {
	if s.log != nil {
		fmt.Fprintf(s.log, format+"\n", args...)
	}
}

// tenantOf attributes a request to a concurrency budget.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit admits one job. A JSON body names a registered workload
// with optional parameters; any other content type is a raw trace
// upload, validated and spooled content-addressed before admission.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var (
		cell  harness.Cell
		label string
		opts  renderOpts
		err   error
	)
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		cell, label, opts, err = s.cellFromSpec(r)
	} else {
		cell, label, err = s.cellFromUpload(r)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &mbe):
			httpError(w, http.StatusRequestEntityTooLarge, "upload exceeds the %d byte limit", mbe.Limit)
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}

	job, err := s.queue.Submit(sweep.JobSpec{
		Tenant: tenantOf(r),
		Label:  label,
		Cell:   cell,
	})
	if hash := cell.TraceHash; hash != "" {
		// An upload is spooled and counted for this job: a refused job
		// releases it at once, an admitted one when it finishes.
		if err != nil {
			s.releaseSpooled(hash)
		} else {
			s.releases.Add(1)
			go func() {
				defer s.releases.Done()
				<-job.Done()
				s.releaseSpooled(hash)
			}()
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, sweep.ErrQueueFull):
			httpError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, sweep.ErrShuttingDown):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.mu.Lock()
	s.renderOpts[job.ID] = opts
	s.mu.Unlock()
	s.logf("cheetahd: job %s (%s) admitted for tenant %s", job.ID, label, job.Tenant)

	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{
		"id":     job.ID,
		"status": string(job.State()),
		"events": "/v1/jobs/" + job.ID + "/events",
		"report": "/v1/jobs/" + job.ID + "/report",
	})
}

// cellFromSpec builds the profiled cell for a named-workload job. The
// cell mirrors what `cheetah <workload>` runs: default 48 cores, the
// calibrated detection PMU, default scheduler — so the job's report
// matches the CLI's bytes for the same parameters.
func (s *server) cellFromSpec(r *http.Request) (harness.Cell, string, renderOpts, error) {
	var spec jobSpec
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return harness.Cell{}, "", renderOpts{}, fmt.Errorf("decoding job spec: %w", err)
	}
	if workload.IsTraceName(spec.Workload) {
		return harness.Cell{}, "", renderOpts{}, fmt.Errorf(
			"trace workloads are submitted by uploading the trace file, not by name")
	}
	if _, ok := workload.ByName(spec.Workload); !ok {
		return harness.Cell{}, "", renderOpts{}, fmt.Errorf(
			"unknown workload %q; available: %s", spec.Workload, strings.Join(workload.Names(), ", "))
	}
	if _, ok := machine.Preset(spec.Machine); !ok {
		return harness.Cell{}, "", renderOpts{}, fmt.Errorf(
			"unknown machine preset %q; available: %s", spec.Machine, strings.Join(machine.Names(), ", "))
	}
	if spec.Threads == 0 {
		spec.Threads = 16
	}
	if spec.Scale == 0 {
		spec.Scale = 1
	}
	cell := harness.Cell{
		Kind:     harness.KindProfiled,
		Workload: spec.Workload,
		Threads:  spec.Threads,
		Cores:    48, // cheetah.New's default machine, like the CLI
		Scale:    spec.Scale,
		Fixed:    spec.Fixed,
		PMU:      harness.DetectionPMU(),
		Machine:  spec.Machine,
	}
	if err := cell.Validate(); err != nil {
		return harness.Cell{}, "", renderOpts{}, err
	}
	return cell, spec.Workload, renderOpts{words: spec.Words, candidates: spec.Candidates}, nil
}

// cellFromUpload spools an uploaded trace content-addressed (dedupes
// identical uploads), validates it via the trace metadata before
// admission, and builds the profiled cell that replays it. Core count
// and machine preset come from the recording and the PMU is the
// calibrated detection configuration — exactly `cheetah -replay`, so
// the report matches the CLI byte for byte. A trace without a
// `machine=` note replays on the default machine with no Machine in
// its cell, so its cell ID and cache key stay those of the default.
// The spooled file is counted for one job; see releaseSpooled.
func (s *server) cellFromUpload(r *http.Request) (harness.Cell, string, error) {
	body := http.MaxBytesReader(nil, r.Body, s.maxUpload)
	tmp, err := os.CreateTemp(s.spoolDir, "upload-*.tmp")
	if err != nil {
		return harness.Cell{}, "", fmt.Errorf("spooling upload: %w", err)
	}
	defer os.Remove(tmp.Name())
	h := sha256.New()
	_, err = io.Copy(io.MultiWriter(tmp, h), body)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return harness.Cell{}, "", fmt.Errorf("spooling upload: %w", err)
	}

	// Validate before admission: a garbage upload fails here with a 400,
	// not later inside a worker.
	meta, err := trace.ReadMetaFile(tmp.Name())
	if err != nil {
		return harness.Cell{}, "", fmt.Errorf("invalid trace upload: %w", err)
	}
	noted := trace.MachineNote(meta.Notes)
	if _, ok := machine.Preset(noted); !ok {
		return harness.Cell{}, "", fmt.Errorf("trace records unknown machine preset %q; available: %s",
			noted, strings.Join(machine.Names(), ", "))
	}

	// Content-address the spooled file: identical uploads share bytes on
	// disk, and the name doubles as the cell's trace hash.
	hash := hex.EncodeToString(h.Sum(nil))
	path := filepath.Join(s.spoolDir, hash+".trace")
	cell := harness.Cell{
		Kind:      harness.KindProfiled,
		Workload:  workload.TracePrefix + path,
		Threads:   1, // replay ignores it; a fixed value keeps cell identity stable
		Cores:     meta.Cores,
		Scale:     1,
		PMU:       harness.DetectionPMU(),
		Machine:   noted,
		TraceHash: hash,
	}
	if err := cell.Validate(); err != nil {
		return harness.Cell{}, "", fmt.Errorf("uploaded trace yields an invalid cell: %w", err)
	}
	label := meta.Name
	if label == "" {
		label = "trace upload"
	}

	s.spoolMu.Lock()
	defer s.spoolMu.Unlock()
	if s.spooled[hash] == 0 {
		if err := os.Rename(tmp.Name(), path); err != nil {
			return harness.Cell{}, "", fmt.Errorf("spooling upload: %w", err)
		}
	}
	s.spooled[hash]++
	return cell, label, nil
}

// releaseSpooled drops one job's count on the spooled upload of content
// hash; the last release removes the file. A later upload of the same
// bytes spools it again under the same path, so its cell ID and cache
// key stay the same.
func (s *server) releaseSpooled(hash string) {
	s.spoolMu.Lock()
	defer s.spoolMu.Unlock()
	if s.spooled[hash]--; s.spooled[hash] == 0 {
		delete(s.spooled, hash)
		if err := os.Remove(filepath.Join(s.spoolDir, hash+".trace")); err != nil {
			s.logf("cheetahd: removing spooled upload: %v", err)
		}
	}
}

func (s *server) jobFor(w http.ResponseWriter, r *http.Request) (*sweep.Job, bool) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return nil, false
	}
	return job, true
}

func statusOf(job *sweep.Job) jobStatus {
	done, total := job.Progress()
	st := jobStatus{
		ID:     job.ID,
		Tenant: job.Tenant,
		Label:  job.Label,
		State:  string(job.State()),
		Done:   done,
		Total:  total,
	}
	if err := job.Err(); err != nil {
		st.Error = err.Error()
	}
	return st
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(statusOf(job))
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.queue.Jobs()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, statusOf(j))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(out)
}

// handleEvents streams a job's progress as Server-Sent Events: the
// full history first (late subscribers lose nothing), then live events
// until the job reaches a terminal state or the client goes away.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	past, live, cancel := job.Subscribe()
	defer cancel()
	writeEvent := func(ev sweep.JobEvent) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, b); err != nil {
			return false
		}
		if canFlush {
			flusher.Flush()
		}
		return true
	}
	for _, ev := range past {
		if !writeEvent(ev) {
			return
		}
	}
	for {
		select {
		case ev, open := <-live:
			if !open {
				return
			}
			if !writeEvent(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleReport serves the finished job's detection report — the exact
// bytes the cheetah CLI prints for the same trace or workload.
func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	switch job.State() {
	case sweep.JobDone:
	case sweep.JobFailed:
		httpError(w, http.StatusInternalServerError, "job failed: %v", job.Err())
		return
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusAccepted, "job %s is %s; retry shortly", job.ID, job.State())
		return
	}
	res, ok := job.Result()
	if !ok || res.Report == nil {
		httpError(w, http.StatusInternalServerError, "job %s finished without a report", job.ID)
		return
	}
	s.mu.Lock()
	opts := s.renderOpts[job.ID]
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, harness.RenderDetectionReport(res.Report, res.Result, opts.words, opts.candidates))
}
