package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	cheetah "repro"
	engine "repro/internal/exec"
	"repro/internal/trace"
)

const (
	// replayTarget is the access count each recorded trace is calibrated
	// to: a streamed replay of one costs a fraction of a second.
	replayTarget = 180_000
	// replayPeriod is the paper's production sampling period.
	replayPeriod = 64 * 1024
)

// replayInputs returns the programs whose traces trace_replay records:
// every workload of the three false-sharing classes.
func replayInputs(seed uint64) ([]input, error) {
	return seededInputs(seed, "trace_replay", poolAll, replayTarget)
}

// runTraceReplay measures `cheetah -replay-stream` at the production
// sampling period over traces recorded from the seeded paper workloads:
// the trace decoder, engine and coherence simulator carry the work.
func runTraceReplay(rc *runCtx, o *outcome) error {
	var e e2e
	var ins []input
	paths := make([]string, len(poolAll))
	accesses := make([]uint64, len(poolAll))
	// Set-up: record every trace, three times over.
	for rep := 0; rep < 3; rep++ {
		secs, err := timed(func() error {
			var err error
			if ins, err = replayInputs(rc.seed); err != nil {
				return err
			}
			for i, in := range ins {
				paths[i] = filepath.Join(rc.work, fmt.Sprintf("t%d.trace", i))
				if accesses[i], err = recordTrace(in, paths[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		e.setups = append(e.setups, secs)
	}
	o.threads = ins[0].Threads
	o.inputs = describe(ins)

	// The expected bytes come from a full in-memory replay; once, check
	// that the streamed replay prints exactly the same.
	cfg := replayPMU(replayPeriod)
	want := make([]string, len(paths))
	for i, p := range paths {
		full, err := replayFileReport(p, cfg)
		if err != nil {
			return err
		}
		streamed, _, _, err := streamReport(p, cfg)
		if err != nil {
			return err
		}
		if streamed != full {
			return fmt.Errorf("%s: streamed replay report differs from the full replay's", ins[i])
		}
		want[i] = full
	}
	o.digest = digestOf(want...)

	replayOnce := func(i int, tr *tracer, parent int) (float64, float64, error) {
		id := tr.begin(parent, "cheetah.replay_stream", ins[i].String())
		defer tr.end(id)
		secs, rss, err := runCheetah(rc, want[i], "-period", fmt.Sprint(replayPeriod), "-replay-stream", paths[i])
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %v", ins[i], err)
		}
		return secs, rss, nil
	}
	var peakRSS float64
	pass := func(tr *tracer, timedPass bool) float64 {
		pid := tr.begin(0, "pass", "")
		start := time.Now()
		for i := range paths {
			o.attempted++
			secs, rss, err := replayOnce(i, tr, pid)
			if err != nil {
				o.fail(rc.log, "%v", err)
				continue
			}
			peakRSS = max(peakRSS, rss)
			if timedPass {
				e.ops = append(e.ops, secs)
				e.accesses += float64(accesses[i])
				n, _ := reportSamples(want[i])
				e.samples += float64(n)
			}
		}
		secs := time.Since(start).Seconds()
		tr.end(pid)
		return secs
	}

	pass(nil, false) // warm-up, discarded
	if rc.tr == nil {
		for e.more(rc.seconds, 3) {
			e.passes = append(e.passes, pass(nil, true))
		}
		return e.emit(o)
	}

	var untraced, traced []float64
	for i := 0; i < overheadPasses; i++ {
		untraced = append(untraced, pass(nil, false))
		traced = append(traced, pass(rc.tr, false))
	}
	o.set("bench.trace_overhead", overhead(untraced, traced), "ratio")
	o.set("trace.peak_rss_mb", peakRSS, "MB")
	if err := traceCodecMetrics(rc, o, paths, ins); err != nil {
		return err
	}
	var ladder []ladderInput
	for i, p := range paths {
		rp, err := trace.ReadFile(p)
		if err != nil {
			return err
		}
		sys := cheetah.New(cheetah.Config{Cores: rp.Cores})
		if err := rp.Prepare(sys.Heap(), sys.Globals()); err != nil {
			return err
		}
		prog := rp.Program()
		ladder = append(ladder, ladderInput{
			name: ins[i].String(),
			pmu:  cfg,
			next: func() (*cheetah.System, engine.Program, error) { return sys, prog, nil },
		})
	}
	if err := runLadder(rc, o, ladder, 5); err != nil {
		return err
	}
	fillPerLayer(o)
	return nil
}

// traceCodecMetrics times the trace layer alone: a bare decode loop, a
// re-encode of the decoded events into the indexed framing, and the
// streamed replay's window statistics.
func traceCodecMetrics(rc *runCtx, o *outcome, paths []string, ins []input) error {
	var decodeNS, encodeNS []float64
	var accesses, bytesTotal uint64
	events := make([][]trace.Event, len(paths))
	data := make([][]byte, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		data[i] = b
		bytesTotal += uint64(len(b))
	}
	// The first repetition keeps the decoded events for the encoder and is
	// not timed; the decode loop of the others keeps nothing.
	for rep := 0; rep < 4; rep++ {
		var dec, enc time.Duration
		for i := range paths {
			id := rc.tr.begin(0, "trace.decode", ins[i].String())
			start := time.Now()
			evs, err := decodeAll(data[i], rep == 0)
			if err != nil {
				return fmt.Errorf("decoding %s: %v", ins[i], err)
			}
			dec += time.Since(start)
			rc.tr.end(id)
			if rep == 0 {
				events[i] = evs
			}

			id = rc.tr.begin(0, "trace.encode", ins[i].String())
			start = time.Now()
			e := trace.NewIndexedEncoder(io.Discard)
			for _, ev := range events[i] {
				if err := e.Encode(ev); err != nil {
					return err
				}
			}
			if err := e.Close(); err != nil {
				return err
			}
			enc += time.Since(start)
			rc.tr.end(id)
		}
		if rep > 0 {
			decodeNS = append(decodeNS, float64(dec.Nanoseconds()))
			encodeNS = append(encodeNS, float64(enc.Nanoseconds()))
		}
	}
	for _, evs := range events {
		for _, ev := range evs {
			if ev.Kind == trace.KindAccess {
				accesses++
			}
		}
	}
	var loads int
	var maxOps uint64
	for _, p := range paths {
		_, l, m, err := streamReport(p, replayPMU(replayPeriod))
		if err != nil {
			return err
		}
		loads += l
		maxOps = max(maxOps, m)
	}
	o.set("trace.decode_ns_per_access", median(decodeNS)/float64(accesses), "ns")
	o.set("trace.encode_ns_per_access", median(encodeNS)/float64(accesses), "ns")
	o.set("trace.bytes_per_access", float64(bytesTotal)/float64(accesses), "B")
	o.set("trace.window_loads", float64(loads), "count")
	o.set("trace.max_window_ops", float64(maxOps), "count")
	return nil
}

// decodeAll runs the bare decoder over a trace, returning the events
// only when keep is set.
func decodeAll(data []byte, keep bool) ([]trace.Event, error) {
	d := trace.NewDecoder(bytes.NewReader(data))
	var evs []trace.Event
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return nil, err
		}
		if keep {
			evs = append(evs, ev)
		}
	}
}
