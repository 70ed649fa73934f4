package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[len(values)-1-i] = float64(i + 1) // unsorted input
	}
	if v, err := percentile(values, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if v, err := percentile(values, 0.5); err != nil || v != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	if _, err := percentile(values[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(values[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if got := minSamplesFor(0.9); got != 100 || minOps != 100 {
		t.Fatalf("minSamplesFor(0.9) = %d, minOps = %d; want 100", got, minOps)
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Fatalf("minSamplesFor(0.5) = %d, want 20", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q2 != 3 || q3 != 7 {
		t.Fatalf("quartiles = %v %v %v, want 1.25 3 7", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestCorruptedExpectedReportCountsAsFailure(t *testing.T) {
	good := &gwTrace{name: "good", want: "report A\n"}
	bad := &gwTrace{name: "bad", want: "report B\n"}
	results := []jobResult{
		{job: gwJob{trace: good}, body: "report A\n"},
		{job: gwJob{trace: bad}, body: "report B (corrupted)\n"},
		{job: gwJob{trace: good}, rejected: true, err: fmt.Errorf("429")},
	}
	var o outcome
	rejected, _ := tallyJobs(&o, results, io.Discard)
	if o.attempted != 3 || o.failed != 2 || rejected != 1 {
		t.Fatalf("attempted %d failed %d rejected %d; want 3, 2, 1", o.attempted, o.failed, rejected)
	}

	in := input{Workload: "blackscholes", Threads: 10, Scale: 0.05}
	d := detect(in, nil, 0)
	if err := checkDetection(in, d, d.text); err != nil {
		t.Fatalf("unmodified report: %v", err)
	}
	if err := checkDetection(in, d, strings.Replace(d.text, "runtime", "runtime ", 1)); err == nil {
		t.Fatal("a corrupted expected report must fail the check")
	}
}

func TestStampMismatchRefused(t *testing.T) {
	a := stamp{Commit: "c1", GoVersion: "go1.24.0", NProc: 2, GOMAXPROCS: 2, GOGC: 100,
		Machine: "opteron48", Sched: "sorted", Threads: 16, Inputs: "pca/t16/s0.7", Workload: "dense_detect", Seed: 1, Seconds: 10, Digest: "d"}
	b := a
	b.Commit = "c2"
	if err := compareStamps(a, b); err != nil {
		t.Fatalf("stamps differing only in the commit must compare: %v", err)
	}
	for field, mutate := range map[string]func(*stamp){
		"gomaxprocs": func(s *stamp) { s.GOMAXPROCS = 4 },
		"gogc":       func(s *stamp) { s.GOGC = 400 },
		"inputs":     func(s *stamp) { s.Inputs = "pca/t16/s0.8" },
		"machine":    func(s *stamp) { s.Machine = "numa2x24" },
		"threads":    func(s *stamp) { s.Threads = 8 },
		"seed":       func(s *stamp) { s.Seed = 2 },
		"digest":     func(s *stamp) { s.Digest = "e" },
	} {
		c := b
		mutate(&c)
		err := compareStamps(a, c)
		if err == nil || !strings.Contains(err.Error(), "field "+field+" ") {
			t.Errorf("%s mismatch: got %v, want an error naming the field", field, err)
		}
	}
}

// fakeGateway serves the three gateway calls a job makes and records
// the most requests it ever had in flight at once.
type fakeGateway struct {
	inflight, peak atomic.Int64
	mu             sync.Mutex
	next           int
}

func (f *fakeGateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := f.inflight.Add(1)
	defer f.inflight.Add(-1)
	for {
		p := f.peak.Load()
		if n <= p || f.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(time.Millisecond) // hold the request so overlaps show
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		io.Copy(io.Discard, r.Body)
		f.mu.Lock()
		f.next++
		id := fmt.Sprintf("j%d", f.next)
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	case strings.HasSuffix(r.URL.Path, "/events"):
		fmt.Fprint(w, "event: cell-done\ndata: {}\n\nevent: done\ndata: {}\n\n")
	case strings.HasSuffix(r.URL.Path, "/report"):
		fmt.Fprint(w, "report\n")
	default:
		http.NotFound(w, r)
	}
}

func TestClosedLoopKeepsTwoRequestsInFlight(t *testing.T) {
	fake := &fakeGateway{}
	srv := httptest.NewServer(fake)
	defer srv.Close()
	c := newGWClient(srv.URL)
	tr := &gwTrace{name: "t", data: []byte("trace"), want: "report\n"}
	results := make([]jobResult, 60)
	closedLoop(len(results), maxProcs, func(i int) { results[i] = c.run(gwJob{trace: tr}, nil, 0) })
	var o outcome
	tallyJobs(&o, results, io.Discard)
	if o.failed != 0 {
		t.Fatalf("%d of %d jobs failed", o.failed, o.attempted)
	}
	if peak := fake.peak.Load(); peak > maxProcs || peak < 1 {
		t.Fatalf("peak requests in flight = %d, want 1..%d", peak, maxProcs)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// lists the runs print in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) || len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d metrics/workloads, the driver %d/%d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(spec.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	for i, m := range endToEnd {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %v, driver prints %s (%s)", i, spec.EndToEnd[i], m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %v, driver prints %s (%s)", i, spec.PerLayer[i], m.name, m.unit)
		}
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workloads[%d] = %s, driver has %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
