package main

import (
	"fmt"
	"time"

	cheetah "repro"
	"repro/internal/core"
	engine "repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/workload"
)

// detectTarget is the simulated access count each dense_detect input is
// calibrated to.
const detectTarget = 600_000

// denseInputs returns every workload of the three false-sharing
// classes, calibrated to about detectTarget accesses.
func denseInputs(seed uint64) ([]input, error) {
	return seededInputs(seed, "dense_detect", poolAll, detectTarget)
}

// detection is one `cheetah <workload>` run under the calibrated
// detection PMU, in process.
type detection struct {
	text      string
	rep       *core.Report
	accesses  uint64
	delivered uint64 // PMU samples handed to the profiler
}

func detect(in input, tr *tracer, parent int) detection {
	id := tr.begin(parent, "workload.build", in.String())
	sys, prog := build(in)
	tr.end(id)
	id = tr.begin(parent, "profile", in.String())
	prof := sys.NewProfiler(cheetah.ProfileOptions{PMU: harness.DetectionPMU()})
	res := sys.RunWith(prog, prof.Probes()...)
	tr.end(id)
	id = tr.begin(parent, "report", in.String())
	rep := prof.Report()
	text := harness.RenderDetectionReport(rep, res, false, false)
	tr.end(id)
	return detection{text: text, rep: rep, accesses: res.Accesses(), delivered: prof.PMUStats().Delivered}
}

// checkDetection compares a detection with the expected report and with
// the workload's false-sharing class: the false sharing of a
// significant-class workload must be detected, a workload without
// false sharing must report nothing. (Whether streamcluster's instance
// clears the significance threshold flips with scale below the paper's
// 1.0, so significance is not checked.)
func checkDetection(in input, d detection, want string) error {
	w, _ := workload.ByName(in.Workload)
	switch {
	case d.text != want:
		return fmt.Errorf("%s: report differs from the first run's", in)
	case w.FS == workload.SignificantFS && !detectsSite(d.rep, w.FSSite):
		return fmt.Errorf("%s: false sharing at %s not detected", in, w.FSSite)
	case w.FS == workload.NoFS && len(d.rep.Instances) > 0:
		return fmt.Errorf("%s: reported %d instances on a workload without false sharing", in, len(d.rep.Instances))
	}
	return nil
}

// runDenseDetect measures `cheetah -threads 16 -scale S <workload>` (a
// subprocess) on every workload of the three false-sharing classes under
// the period-64 detection PMU: the profiler-heavy path.
func runDenseDetect(rc *runCtx, o *outcome) error {
	var e e2e
	var ins []input
	var want []string
	var accesses, delivered []uint64
	// Set-up: calibrate the inputs and detect each once in process, three
	// times; the first pass fixes the expected reports and checks each
	// against its workload's false-sharing class.
	for rep := 0; rep < 3; rep++ {
		secs, err := timed(func() error {
			var err error
			ins, err = denseInputs(rc.seed)
			if err != nil {
				return err
			}
			for i, in := range ins {
				d := detect(in, nil, 0)
				if rep == 0 {
					want = append(want, d.text)
					accesses = append(accesses, d.accesses)
					delivered = append(delivered, d.delivered)
					if err := checkDetection(in, d, d.text); err != nil {
						return err
					}
				} else if d.text != want[i] {
					return fmt.Errorf("%s: set-up runs disagree", in)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		e.setups = append(e.setups, secs)
	}
	o.threads = seedThreads
	o.inputs = describe(ins)
	o.digest = digestOf(want...)

	detectOnce := func(i int, tr *tracer, parent int) (float64, error) {
		in := ins[i]
		id := tr.begin(parent, "cheetah.detect", in.String())
		defer tr.end(id)
		secs, _, err := runCheetah(rc, want[i], "-threads", fmt.Sprint(in.Threads), "-scale", fmt.Sprint(in.Scale), in.Workload)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", in, err)
		}
		return secs, nil
	}
	pass := func(tr *tracer, timedPass bool) float64 {
		pid := tr.begin(0, "pass", "")
		start := time.Now()
		for i := range ins {
			o.attempted++
			secs, err := detectOnce(i, tr, pid)
			if err != nil {
				o.fail(rc.log, "%v", err)
				continue
			}
			if timedPass {
				e.ops = append(e.ops, secs)
				e.accesses += float64(accesses[i])
				e.samples += float64(delivered[i])
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
	// One in-process pass splits each detection into build, profile and
	// report spans.
	for _, in := range ins {
		id := rc.tr.begin(0, "detect", in.String())
		detect(in, rc.tr, id)
		rc.tr.end(id)
	}
	var ladder []ladderInput
	for _, in := range ins {
		ladder = append(ladder, ladderInput{
			name: in.String(),
			pmu:  harness.DetectionPMU(),
			next: func() (*cheetah.System, engine.Program, error) {
				sys, prog := build(in)
				return sys, prog, nil
			},
		})
	}
	if err := runLadder(rc, o, ladder, 5); err != nil {
		return err
	}
	if err := harnessCellMetrics(rc, o, ins); err != nil {
		return err
	}
	fillPerLayer(o)
	return nil
}
