package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"regexp"
	"strconv"
	"strings"

	cheetah "repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// input is one seeded program: a paper workload at a thread count and a
// scale calibrated so that every input does about the same work.
type input struct {
	Workload string
	Threads  int
	Scale    float64
}

func (in input) String() string {
	return fmt.Sprintf("%s/t%d/s%g", in.Workload, in.Threads, in.Scale)
}

// The paper workloads the seeded workloads run, by false-sharing
// class. Left out: the thread-heavy x264 and kmeans (1024 and 224
// threads), and canneal and matrix_multiply, whose access counts do not
// follow a power of the scale closely enough to calibrate.
var (
	poolSignificant = []string{"linear_regression", "streamcluster"}
	poolMinor       = []string{"histogram", "reverse_index", "word_count"}
	poolNone        = []string{
		"blackscholes", "bodytrack", "facesim", "fluidanimate",
		"freqmine", "pca", "string_match", "swaptions",
	}
	poolAll = append(append(append([]string(nil), poolSignificant...), poolMinor...), poolNone...)
)

// seedThreads is the per-phase thread count of every seeded input, the
// paper's 16.
const seedThreads = 16

// seededInputs returns the inputs of one seed: every named workload,
// calibrated to a target access count the seed stretches by up to 2%,
// in an order the seed shuffles. Workloads differ in host cost per
// access by up to 3x, so the seed varies the sizes and the order of the
// work but not which work a pass does: every seed then costs about the
// same, and a run's figures do not depend on which workloads it drew.
func seededInputs(seed uint64, purpose string, names []string, target uint64) ([]input, error) {
	r := rngFor(seed, purpose)
	stretched := uint64(float64(target) * (1 + 0.02*r.Float64()))
	order := r.Perm(len(names))
	ins := make([]input, len(names))
	for i, j := range order {
		in, err := calibrate(names[j], seedThreads, stretched)
		if err != nil {
			return nil, err
		}
		ins[i] = in
	}
	return ins, nil
}

// rngFor returns the deterministic generator for one seed and purpose.
func rngFor(seed uint64, purpose string) *rand.Rand {
	h := sha256.Sum256([]byte(purpose))
	var s uint64
	for _, b := range h[:8] {
		s = s<<8 | uint64(b)
	}
	return rand.New(rand.NewPCG(seed, s))
}

// flatMachine is a memory system with one fixed latency and no state:
// the engine's cost alone, the bottom rung of the layer ladder.
type flatMachine struct{ cores int }

func (m flatMachine) Access(int, mem.Addr, bool, uint64) uint32 { return 4 }
func (m flatMachine) Cores() int                                { return m.cores }

// probeScale is the smaller of the two scales calibration runs at: small
// enough to cost a few milliseconds.
const probeScale = 0.02

// probeAccesses counts a workload's simulated accesses at a scale on the
// flat machine; access counts do not depend on latencies.
func probeAccesses(w *workload.Workload, threads int, scale float64) float64 {
	sys := cheetah.New(cheetah.Config{})
	prog := w.Build(sys, workload.Params{Threads: threads, Scale: scale})
	return float64(exec.New(flatMachine{cores: sys.Cores()}, exec.DefaultConfig()).Run(prog).Accesses())
}

// calibrate returns the input for a workload and thread count whose
// scale gives about target simulated accesses. It fits accesses ∝
// scale^k through probes at probeScale and twice that, solves for the
// target, caps the scale at the paper's 1.0, and rounds it to three
// significant digits so stamps stay readable. The result is a pure
// function of its arguments.
func calibrate(name string, threads int, target uint64) (input, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return input{}, fmt.Errorf("unknown workload %q", name)
	}
	a1 := probeAccesses(w, threads, probeScale)
	a2 := probeAccesses(w, threads, 2*probeScale)
	if a1 == 0 || a2 <= a1 {
		return input{}, fmt.Errorf("%s: accesses do not grow with scale", name)
	}
	k := math.Log2(a2 / a1)
	scale := min(1, probeScale*math.Pow(float64(target)/a1, 1/k))
	digits := math.Pow(10, 2-math.Floor(math.Log10(scale)))
	return input{Workload: name, Threads: threads, Scale: math.Round(scale*digits) / digits}, nil
}

// build makes a fresh system and the input's program on it.
func build(in input) (*cheetah.System, cheetah.Program) {
	w, _ := workload.ByName(in.Workload)
	sys := cheetah.New(cheetah.Config{})
	return sys, w.Build(sys, workload.Params{Threads: in.Threads, Scale: in.Scale})
}

// recordTrace runs the input natively and writes its full access trace
// to path in the indexed binary framing, as `cheetah -record` followed
// by `cheetah -index` would. It returns the simulated access count.
func recordTrace(in input, path string) (uint64, error) {
	sys, prog := build(in)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	rec := trace.NewRecorder(trace.NewIndexedEncoder(f), sys.Heap(), sys.Globals())
	res := sys.RunWith(prog, rec)
	if err := rec.Err(); err != nil {
		f.Close()
		return 0, fmt.Errorf("recording %s: %v", in, err)
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return res.Accesses(), nil
}

// replayPMU is `cheetah -period p`'s sampling configuration.
func replayPMU(period uint64) pmu.Config {
	return pmu.Config{Period: period, Jitter: period / 4, HandlerCycles: 4, SetupCycles: 4700}
}

// replayReport renders the report `cheetah -replay` prints for a trace
// under the given sampling configuration: the full, non-streamed replay
// path.
func replayReport(rp *trace.Replay, cfg pmu.Config) (string, error) {
	sys := cheetah.New(cheetah.Config{Cores: rp.Cores})
	if err := rp.Prepare(sys.Heap(), sys.Globals()); err != nil {
		return "", err
	}
	rep, res := sys.Profile(rp.Program(), cheetah.ProfileOptions{PMU: cfg})
	return harness.RenderDetectionReport(rep, res, false, false), nil
}

// replayFileReport is replayReport over a trace file.
func replayFileReport(path string, cfg pmu.Config) (string, error) {
	rp, err := trace.ReadFile(path)
	if err != nil {
		return "", err
	}
	return replayReport(rp, cfg)
}

// replayBytesReport is replayReport over an in-memory trace.
func replayBytesReport(b []byte, cfg pmu.Config) (string, error) {
	rp, err := trace.Read(bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	return replayReport(rp, cfg)
}

// streamReport renders the report `cheetah -replay-stream` prints, in
// process, and returns the replay's window statistics.
func streamReport(path string, cfg pmu.Config) (string, int, uint64, error) {
	sr, err := trace.OpenStream(path)
	if err != nil {
		return "", 0, 0, err
	}
	sys := cheetah.New(cheetah.Config{Cores: sr.Cores})
	if err := sr.Prepare(sys.Heap(), sys.Globals()); err != nil {
		return "", 0, 0, err
	}
	rep, res := sys.Profile(sr.Program(), cheetah.ProfileOptions{PMU: cfg})
	loads, maxOps := sr.WindowStats()
	return harness.RenderDetectionReport(rep, res, false, false), loads, maxOps, nil
}

var samplesRE = regexp.MustCompile(`runtime \d+ cycles, (\d+) samples\)`)

// reportSamples reads the accepted-sample count from a rendered report's
// header line.
func reportSamples(report string) (uint64, error) {
	m := samplesRE.FindStringSubmatch(report)
	if m == nil {
		return 0, fmt.Errorf("report has no sample count")
	}
	return strconv.ParseUint(m[1], 10, 64)
}

// detectsSite says whether the profiler classified a workload's known
// false-sharing site (allocation file:line or global) as false sharing
// at all: reported, or kept as a candidate below the significance
// thresholds.
func detectsSite(rep *core.Report, site string) bool {
	return findSite(rep.Instances, site) || findSite(rep.Candidates, site)
}

func findSite(ins []core.Instance, site string) bool {
	for _, in := range ins {
		if !in.FalseSharing {
			continue
		}
		if in.Object.Name == site {
			return true
		}
		for _, f := range in.Object.Stack {
			if fmt.Sprintf("%s:%d", f.File, f.Line) == site {
				return true
			}
		}
	}
	return false
}

// digestOf returns the hex sha256 of the concatenated parts.
func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\x00%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// describe joins inputs for the stamp.
func describe(ins []input) string {
	parts := make([]string, len(ins))
	for i, in := range ins {
		parts[i] = in.String()
	}
	return strings.Join(parts, ",")
}
