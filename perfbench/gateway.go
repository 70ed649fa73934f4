package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/trace"
)

// gwCorpusWorkloads are the programs whose recorded traces form the
// warm corpus, one per false-sharing class, each calibrated to
// gwCorpusTarget accesses. Every hit re-uploads and spools one of them:
// at about 6 bytes per access each is near 400 KB, enough upload work
// that a hit's latency is not all HTTP round trips.
var gwCorpusWorkloads = []string{"linear_regression", "histogram", "blackscholes"}

const (
	gwCorpusTarget = 60_000
	// gwBatch is the jobs per timed pass: gwHits re-uploads of the warm
	// corpus, gwNew traces the daemon has never seen, and gwDup of those
	// submitted twice in a row so that in-flight dedupe runs.
	gwBatch = 40
	gwNew   = 7
	gwDup   = 3
	gwHits  = gwBatch - gwNew - gwDup
	// gwNewAccesses and gwNewThreads size each never-seen synthetic trace.
	gwNewAccesses = 24_000
	gwNewThreads  = 8
)

// gwTrace is one uploadable trace and the report the CLI prints for it.
type gwTrace struct {
	name     string
	data     []byte
	accesses uint64
	want     string // "" until known
}

// gwJob is one submission of a trace.
type gwJob struct {
	trace *gwTrace
	miss  bool // the trace is new to the daemon (or its duplicate)
}

// jobResult is one job's client-side timing and outcome.
type jobResult struct {
	job                  gwJob
	submit, wait, report time.Duration
	body                 string
	rejected             bool
	resynced             bool // the event stream ended early; status confirmed the job
	err                  error
}

func (r jobResult) total() float64 { return (r.submit + r.wait + r.report).Seconds() }

// synthTrace writes a never-seen trace: a synthetic indexed trace whose
// name makes its content, and so its cache identity, unique.
func synthTrace(name string, threads int) (*gwTrace, error) {
	var b bytes.Buffer
	enc := trace.NewIndexedEncoder(&b)
	err := trace.WriteSynthetic(enc, trace.SynthConfig{Name: name, Accesses: gwNewAccesses, Threads: threads, Phases: 32})
	if err == nil {
		err = enc.Close()
	}
	if err != nil {
		return nil, err
	}
	meta, err := trace.ReadMeta(bytes.NewReader(b.Bytes()))
	if err != nil {
		return nil, err
	}
	return &gwTrace{name: name, data: b.Bytes(), accesses: meta.Accesses}, nil
}

// batchJobs lays out one pass's jobs for a seed: hits drawn from the
// corpus, new traces, and duplicates placed right behind their first
// submission so the other client is likely to submit the same trace
// while it is in flight.
func batchJobs(seed uint64, batch int, corpus []*gwTrace) ([]gwJob, error) {
	r := rngFor(seed, fmt.Sprintf("gateway-batch-%d", batch))
	type unit struct {
		hit *gwTrace
		new int // index of a new trace, or -1
		dup bool
	}
	var units []unit
	for i := 0; i < gwHits; i++ {
		units = append(units, unit{hit: corpus[r.IntN(len(corpus))], new: -1})
	}
	for k := 0; k < gwNew; k++ {
		units = append(units, unit{new: k, dup: k < gwDup})
	}
	r.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	var jobs []gwJob
	for _, u := range units {
		if u.hit != nil {
			jobs = append(jobs, gwJob{trace: u.hit})
			continue
		}
		t, err := synthTrace(fmt.Sprintf("gw-seed%d-batch%d-new%d", seed, batch, u.new), gwNewThreads)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, gwJob{trace: t, miss: true})
		if u.dup {
			jobs = append(jobs, gwJob{trace: t, miss: true})
		}
	}
	return jobs, nil
}

// closedLoop runs n jobs on `clients` closed-loop clients: each client
// takes the next job only after its previous one has completed, so at
// most `clients` jobs are ever in flight.
func closedLoop(n, clients int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// gwClient drives the gateway's HTTP API the way a user does: submit,
// wait for the done event, fetch the report.
type gwClient struct {
	http *http.Client
	base string
}

func newGWClient(base string) *gwClient {
	return &gwClient{
		base: base,
		http: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: maxProcs, MaxIdleConnsPerHost: maxProcs},
		},
	}
}

// run performs one job and times its three phases.
func (c *gwClient) run(job gwJob, tr *tracer, parent int) jobResult {
	res := jobResult{job: job}
	jid := tr.begin(parent, "gateway.job", job.trace.name)
	defer tr.end(jid)

	sid := tr.begin(jid, "gateway.submit", job.trace.name)
	start := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/octet-stream", bytes.NewReader(job.trace.data))
	if err != nil {
		res.err = err
		tr.end(sid)
		return res
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	drain(resp)
	res.submit = time.Since(start)
	tr.end(sid)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		res.rejected = true
		res.err = errors.New("submission refused with 429")
		return res
	case resp.StatusCode != http.StatusAccepted:
		res.err = fmt.Errorf("submission returned %s", resp.Status)
		return res
	case err != nil || sub.ID == "":
		res.err = fmt.Errorf("submission response: %v", err)
		return res
	}

	wid := tr.begin(jid, "gateway.wait", job.trace.name)
	start = time.Now()
	err = c.waitDone(sub.ID)
	if errors.Is(err, errNoTerminalEvent) {
		// The daemon can close a job's event stream without its terminal
		// event when the job finishes just as the stream opens; the job's
		// status is authoritative.
		res.resynced = true
		err = c.checkDone(sub.ID)
	}
	res.wait = time.Since(start)
	tr.end(wid)
	if err != nil {
		res.err = err
		return res
	}

	rid := tr.begin(jid, "gateway.report", job.trace.name)
	start = time.Now()
	resp, err = c.http.Get(c.base + "/v1/jobs/" + sub.ID + "/report")
	if err == nil {
		var b []byte
		b, err = io.ReadAll(resp.Body)
		drain(resp)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("report returned %s", resp.Status)
		}
		res.body = string(b)
	}
	res.report = time.Since(start)
	tr.end(rid)
	res.err = err
	return res
}

// waitDone follows a job's event stream to its terminal event.
func (c *gwClient) waitDone(id string) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events returned %s", resp.Status)
	}
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "done":
			return nil
		case "failed":
			var ev struct {
				Err string `json:"error"`
			}
			_ = json.Unmarshal([]byte(data), &ev) // the job failed either way; the cause is best effort
			return fmt.Errorf("job failed: %s", ev.Err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errNoTerminalEvent
}

// drain reads a response to its end and closes it: only a body read to
// EOF returns its connection to the pool, and a fresh connection per
// request would put TCP set-up, and sockets piling up in TIME_WAIT
// across runs, into every job's latency.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

var errNoTerminalEvent = errors.New("event stream ended without a terminal event")

// checkDone reads a job's status and fails unless the job is done.
func (c *gwClient) checkDone(id string) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return err
	}
	var st struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	drain(resp)
	if err != nil {
		return fmt.Errorf("job status: %v", err)
	}
	if st.State != "done" {
		return fmt.Errorf("job is %s after its event stream ended %s", st.State, st.Error)
	}
	return nil
}

// tallyJobs counts every job as attempted and every refused, failed or
// mismatched one as failed. It returns the refusals and the jobs whose
// event stream ended without a terminal event.
func tallyJobs(o *outcome, results []jobResult, log io.Writer) (rejected, resynced int) {
	for _, res := range results {
		o.attempted++
		if res.resynced {
			resynced++
		}
		switch {
		case res.rejected:
			rejected++
			o.fail(log, "%s: %v", res.job.trace.name, res.err)
		case res.err != nil:
			o.fail(log, "%s: %v", res.job.trace.name, res.err)
		case res.body != res.job.trace.want:
			o.fail(log, "%s: report differs from the CLI rendering of the same trace", res.job.trace.name)
		}
	}
	return rejected, resynced
}

// daemon is a running cheetahd.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	drained  chan struct{} // closed when its stderr reaches EOF
	stopOnce sync.Once
	stopErr  error
}

// errStopped reports a daemon that did not exit when asked.
var errStopped = errors.New("cheetahd did not stop within 30s")

var servingRE = regexp.MustCompile(`serving detection on (http://\S+) `)

// startDaemon starts cheetahd on a free local port with a fresh cache and
// spool under dir, one executor, and waits until it answers /healthz.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "cheetahd"), "-addr", "127.0.0.1:0",
		"-cache-dir", filepath.Join(dir, "cache"), "-spool", filepath.Join(dir, "spool"), "-workers", "1")
	cmd.Env = childEnv(gogc)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil && !found {
				found = true
				addr <- m[1]
			}
		}
		if !found {
			close(addr)
		}
	}()
	select {
	case base, ok := <-addr:
		if !ok {
			d.stop()
			return nil, errors.New("cheetahd exited before serving")
		}
		d.base = base
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("cheetahd did not start serving within 30s")
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cheetahd not healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (killing it after 30s) and waits
// for it to exit. It is safe to call more than once.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.drained:
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill()
			<-d.drained
			d.stopErr = errStopped
		}
		if err := d.cmd.Wait(); err != nil && d.stopErr == nil {
			d.stopErr = fmt.Errorf("cheetahd: %v", err)
		}
	})
	return d.stopErr
}

// scrapeCounters reads the named counters from the daemon's /metrics.
func scrapeCounters(base string, names ...string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		for _, n := range names {
			if fields[0] == n {
				v, err := strconv.ParseFloat(fields[1], 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %v", n, err)
				}
				out[n] = v
			}
		}
	}
	return out, sc.Err()
}

// runGateway measures a real cheetahd under two closed-loop clients:
// mostly cache hits on a warm corpus, which stress HTTP, spooling and
// the job queue, plus never-seen traces the daemon must simulate.
func runGateway(rc *runCtx, o *outcome) error {
	ins, err := seededInputs(rc.seed, "gateway", gwCorpusWorkloads, gwCorpusTarget)
	if err != nil {
		return err
	}
	var corpus []*gwTrace
	for i, in := range ins {
		path := filepath.Join(rc.work, fmt.Sprintf("corpus%d.trace", i))
		if _, err := recordTrace(in, path); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		want, err := replayFileReport(path, harness.DetectionPMU())
		if err != nil {
			return err
		}
		meta, err := trace.ReadMetaFile(path)
		if err != nil {
			return err
		}
		corpus = append(corpus, &gwTrace{name: in.String(), data: data, accesses: meta.Accesses, want: want})
	}
	o.threads = seedThreads
	o.inputs = fmt.Sprintf("%s; new traces: synth/t%d/%d accesses", describe(ins), gwNewThreads, gwNewAccesses)

	var results []jobResult
	runBatch := func(c *gwClient, jobs []gwJob, tr *tracer) (float64, []jobResult) {
		out := make([]jobResult, len(jobs))
		pid := tr.begin(0, "pass", "")
		start := time.Now()
		closedLoop(len(jobs), maxProcs, func(i int) { out[i] = c.run(jobs[i], tr, pid) })
		secs := time.Since(start).Seconds()
		tr.end(pid)
		results = append(results, out...)
		return secs, out
	}

	// Set-up: start the daemon and upload the warm corpus, five times (it
	// takes tens of milliseconds); the last daemon stays up for the
	// measurement.
	var e e2e
	var d *daemon
	for rep := 0; rep < 5; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		dir := filepath.Join(rc.work, fmt.Sprintf("gw%d", rep))
		start := time.Now()
		var err error
		if d, err = startDaemon(rc.bin, dir); err != nil {
			return err
		}
		defer d.stop()
		jobs := make([]gwJob, len(corpus))
		for i, t := range corpus {
			jobs[i] = gwJob{trace: t, miss: true}
		}
		runBatch(newGWClient(d.base), jobs, nil)
		e.setups = append(e.setups, time.Since(start).Seconds())
	}
	client := newGWClient(d.base)

	batch := -1 // the warm-up pass
	nextBatch := func() ([]gwJob, error) {
		jobs, err := batchJobs(rc.seed, batch, corpus)
		batch++
		return jobs, err
	}
	jobs, err := nextBatch()
	if err != nil {
		return err
	}
	runBatch(client, jobs, nil)

	var timedJobs []jobResult
	var untraced, traced []float64
	if rc.tr == nil {
		for e.more(rc.seconds, 2) {
			if jobs, err = nextBatch(); err != nil {
				return err
			}
			secs, out := runBatch(client, jobs, nil)
			e.passes = append(e.passes, secs)
			for _, res := range out {
				e.ops = append(e.ops, res.total())
			}
			timedJobs = append(timedJobs, out...)
		}
	} else {
		for i := 0; i < overheadPasses; i++ {
			if jobs, err = nextBatch(); err != nil {
				return err
			}
			secs, _ := runBatch(client, jobs, nil)
			untraced = append(untraced, secs)
			if jobs, err = nextBatch(); err != nil {
				return err
			}
			secs, out := runBatch(client, jobs, rc.tr)
			traced = append(traced, secs)
			timedJobs = append(timedJobs, out...)
		}
	}
	counters, scrapeErr := scrapeCounters(d.base,
		"cheetah_gateway_cells_executed_total", "cheetah_gateway_cells_cached_total",
		"cheetah_gateway_cells_deduped_total")
	if err := d.stop(); err != nil {
		return err
	}
	if scrapeErr != nil {
		return scrapeErr
	}

	// Check every report against the CLI rendering of its trace. New
	// traces are replayed here, after the clock stopped, on two workers.
	var missing []*gwTrace
	seen := map[*gwTrace]bool{}
	for _, res := range results {
		if t := res.job.trace; t.want == "" && !seen[t] {
			seen[t] = true
			missing = append(missing, t)
		}
	}
	verrs := make([]error, len(missing))
	closedLoop(len(missing), maxProcs, func(i int) {
		missing[i].want, verrs[i] = replayBytesReport(missing[i].data, harness.DetectionPMU())
	})
	if err := errors.Join(verrs...); err != nil {
		return err
	}
	rejected, resynced := tallyJobs(o, results, rc.log)
	var corpusWant []string
	for _, t := range corpus {
		corpusWant = append(corpusWant, t.want)
	}
	o.digest = digestOf(corpusWant...)

	if rc.tr == nil {
		counted := map[*gwTrace]bool{}
		for _, res := range timedJobs {
			if t := res.job.trace; res.job.miss && !counted[t] {
				counted[t] = true
				n, err := reportSamples(t.want)
				if err != nil {
					return err
				}
				e.accesses += float64(t.accesses)
				e.samples += float64(n)
			}
		}
		return e.emit(o)
	}

	o.set("bench.trace_overhead", overhead(untraced, traced), "ratio")
	var submit, report, waitHit, waitMiss []float64
	for _, res := range timedJobs {
		submit = append(submit, res.submit.Seconds()*1e3)
		report = append(report, res.report.Seconds()*1e3)
		if res.job.miss {
			waitMiss = append(waitMiss, res.wait.Seconds()*1e3)
		} else {
			waitHit = append(waitHit, res.wait.Seconds()*1e3)
		}
	}
	for _, m := range []struct {
		name string
		v    []float64
	}{
		{"gateway.submit_ms_p50", submit}, {"gateway.report_ms_p50", report},
		{"gateway.wait_ms_p50.hit", waitHit}, {"gateway.wait_ms_p50.miss", waitMiss},
	} {
		v, err := percentile(m.v, 0.5)
		if err != nil {
			return fmt.Errorf("%s: %v", m.name, err)
		}
		o.set(m.name, v, "ms")
	}
	executed := counters["cheetah_gateway_cells_executed_total"]
	cached := counters["cheetah_gateway_cells_cached_total"]
	deduped := counters["cheetah_gateway_cells_deduped_total"]
	o.set("sweep.cells_executed", executed, "count")
	o.set("sweep.cells_cached", cached, "count")
	o.set("sweep.cells_deduped", deduped, "count")
	o.set("gateway.cache_hit_ratio", (cached+deduped)/(executed+cached+deduped), "ratio")
	o.set("gateway.rejected", float64(rejected), "count")
	o.set("gateway.event_resyncs", float64(resynced), "count")
	fillPerLayer(o)
	return nil
}
