package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/pmu"
	"repro/internal/workload"
)

// This file is the harness's cell surface: what a gateway job
// (internal/sweep) needs to run a cell outside the Runner, in this
// process or in a worker subprocess. A Cell names one experiment cell
// and is the Runner's memoization key; a CellResult is a finished
// cell's payload, plain data that survives the wire's and the cache's
// JSON round trip exactly. RunCell executes one cell.

// Cell kinds: what a cell measures.
const (
	// KindNative is an unprofiled run: the ground-truth runtime.
	KindNative = "native"
	// KindProfiled runs under the Cheetah profiler with the cell's PMU.
	KindProfiled = "profiled"
	// KindPredator runs under the Predator-style full instrumenter.
	KindPredator = "predator"
	// KindSheriff runs under the Sheriff-style page-diff detector.
	KindSheriff = "sheriff"
	// KindRule is a fully-instrumented traced run feeding the rule
	// ablation: both counting rules plus the coherence ground truth.
	KindRule = "rule"
)

// Cell identifies one experiment cell. It carries every input the
// simulated outcome depends on, so equal Cells are interchangeable
// across processes and machines.
type Cell struct {
	Kind     string  `json:"kind"`
	Workload string  `json:"workload"`
	Threads  int     `json:"threads"`
	Cores    int     `json:"cores"`
	Scale    float64 `json:"scale"`
	Fixed    bool    `json:"fixed,omitempty"`
	// PMU is the sampling configuration for profiled cells; zero for
	// every other kind.
	PMU pmu.Config `json:"pmu"`
	// Machine is the machine-model preset the cell simulates; empty means
	// the canonical opteron48 (and is the canonical spelling for it, so
	// default-machine cells keep machine-free IDs and cache entries).
	Machine string `json:"machine,omitempty"`
	// TraceHash is the sha256 of the trace file's content for `trace:`
	// pseudo-workloads (empty otherwise, or when the file is unreadable
	// when the cell is built). A trace cell's outcome depends on the
	// file's bytes, not its path, so the hash joins the identity:
	// rewriting a trace in place orphans its old cache entries instead
	// of serving stale results, and a worker whose copy of the file
	// diverges from the hashed one refuses the cell instead of returning
	// a report of other data.
	TraceHash string `json:"trace_hash,omitempty"`
}

// TraceContentHash returns the identity hash of a trace file's content
// (the value carried in Cell.TraceHash), or "" if the file is
// unreadable. The file is streamed through the hash, so memory stays
// small however large the trace; it is re-read on every call, and
// callers that hash repeatedly memoize per path (Runner.traceHashFor),
// with the same lifetime as their cell memoization.
func TraceContentHash(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceHashFor derives the TraceHash identity component for a workload
// name: the content hash for trace pseudo-workloads, "" for everything
// else. Phase-ranged names hash the same underlying file — the range is
// already part of the workload name, so two ranges of one trace share
// the hash but not the identity.
func traceHashFor(name string) string {
	if !workload.IsTraceName(name) {
		return ""
	}
	return TraceContentHash(workload.TracePath(name))
}

// canonMachine canonicalizes a machine-preset name for cell identity: the
// canonical opteron48 is spelled "", keeping default-machine cells on
// their pre-machine-model IDs and cache entries.
func canonMachine(s string) string { return machine.Canon(s) }

// Bounds on Cell fields. Decoded cells come from worker streams and
// cache files — external input — so every field is range-checked rather
// than trusted.
const (
	maxCellThreads = 1 << 16
	maxCellCores   = 1 << 16
	maxCellScale   = 1 << 20
	maxCellName    = 4096
	maxPMUField    = 1 << 48
)

// Validate range-checks every field. It accepts every cell the
// experiments submit (for any valid Config) and rejects everything a
// corrupt cache file or malicious worker stream could smuggle in.
func (c Cell) Validate() error {
	switch c.Kind {
	case KindNative, KindProfiled, KindPredator, KindSheriff, KindRule:
	default:
		return fmt.Errorf("harness: unknown cell kind %q", c.Kind)
	}
	if c.Workload == "" || len(c.Workload) > maxCellName {
		return fmt.Errorf("harness: cell workload name length %d out of range", len(c.Workload))
	}
	if c.Threads < 1 || c.Threads > maxCellThreads {
		return fmt.Errorf("harness: cell threads %d out of range", c.Threads)
	}
	if c.Cores < 1 || c.Cores > maxCellCores {
		return fmt.Errorf("harness: cell cores %d out of range", c.Cores)
	}
	if !(c.Scale > 0) || c.Scale > maxCellScale || math.IsInf(c.Scale, 0) {
		return fmt.Errorf("harness: cell scale %v out of range", c.Scale)
	}
	if c.PMU.Mode > pmu.CountCycles {
		return fmt.Errorf("harness: cell PMU mode %d out of range", c.PMU.Mode)
	}
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"period", c.PMU.Period},
		{"jitter", c.PMU.Jitter},
		{"handler cycles", c.PMU.HandlerCycles},
		{"setup cycles", c.PMU.SetupCycles},
	} {
		if f.v > maxPMUField {
			return fmt.Errorf("harness: cell PMU %s %d out of range", f.name, f.v)
		}
	}
	if _, ok := machine.Preset(c.Machine); !ok {
		return fmt.Errorf("harness: unknown cell machine %q", c.Machine)
	}
	if c.TraceHash != "" {
		if !workload.IsTraceName(c.Workload) {
			return fmt.Errorf("harness: cell %q is not a trace workload but carries a trace hash", c.Workload)
		}
		if len(c.TraceHash) != sha256.Size*2 {
			return fmt.Errorf("harness: cell trace hash length %d, want %d", len(c.TraceHash), sha256.Size*2)
		}
		if _, err := hex.DecodeString(c.TraceHash); err != nil {
			return fmt.Errorf("harness: cell trace hash is not hex: %v", err)
		}
	}
	return nil
}

// ID returns the cell's canonical string form: an injective encoding of
// every field, stable across processes. Sweeps key results by it and
// content-address cache entries with its hash.
func (c Cell) ID() string {
	id := c.Kind + "|" + c.Workload +
		"|t" + strconv.Itoa(c.Threads) +
		"|c" + strconv.Itoa(c.Cores) +
		"|s" + strconv.FormatFloat(c.Scale, 'g', -1, 64) +
		"|f" + strconv.FormatBool(c.Fixed) +
		"|pmu" + strconv.FormatUint(c.PMU.Period, 10) +
		"," + strconv.Itoa(int(c.PMU.Mode)) +
		"," + strconv.FormatUint(c.PMU.Jitter, 10) +
		"," + strconv.FormatUint(c.PMU.HandlerCycles, 10) +
		"," + strconv.FormatUint(c.PMU.SetupCycles, 10)
	// Default-machine cells keep their pre-machine-model IDs, so their
	// result caches stay warm; likewise non-trace cells (every
	// registered workload) keep their pre-hash IDs.
	if m := canonMachine(c.Machine); m != "" {
		id += "|m" + m
	}
	if c.TraceHash != "" {
		id += "|th" + c.TraceHash
	}
	return id
}

// CellResult is a finished cell's payload. Exactly one result group is
// populated per kind: Result for native runs, Result + Report for
// profiled, Result + Findings for the baselines, Rule for rule-ablation
// cells.
type CellResult struct {
	Result   exec.Result        `json:"result"`
	Report   *core.Report       `json:"report,omitempty"`
	Findings []baseline.Finding `json:"findings,omitempty"`
	Rule     *RuleRow           `json:"rule,omitempty"`
}

// Bounds on CellResult payloads: generous multiples of anything a real
// run produces, but small enough that a hostile cache file or worker
// stream cannot make its reader amplify its input.
const (
	maxResultRecords   = 1 << 21
	maxReportInstances = 1 << 20
	maxInstanceLines   = 1 << 20
	maxLineWords       = 1 << 10
	maxWordAccesses    = 1 << 17
	maxStackFrames     = 64
	maxResultString    = 1 << 16
)

// Validate bounds every field of a decoded result. Like Cell.Validate it
// is the trust boundary for external input; it checks structural limits,
// not simulation semantics.
func (r *CellResult) Validate() error {
	if len(r.Result.Phases) > maxResultRecords || len(r.Result.Threads) > maxResultRecords {
		return fmt.Errorf("harness: result has %d phases / %d threads, limit %d",
			len(r.Result.Phases), len(r.Result.Threads), maxResultRecords)
	}
	for _, p := range r.Result.Phases {
		if len(p.Name) > maxResultString {
			return fmt.Errorf("harness: phase name length %d out of range", len(p.Name))
		}
	}
	if r.Report != nil {
		if err := validateReport(r.Report); err != nil {
			return err
		}
	}
	if len(r.Findings) > maxReportInstances {
		return fmt.Errorf("harness: %d findings, limit %d", len(r.Findings), maxReportInstances)
	}
	for _, f := range r.Findings {
		if len(f.Site) > maxResultString {
			return fmt.Errorf("harness: finding site length %d out of range", len(f.Site))
		}
	}
	if r.Rule != nil && len(r.Rule.App) > maxCellName {
		return fmt.Errorf("harness: rule app name length %d out of range", len(r.Rule.App))
	}
	return nil
}

func validateReport(rep *core.Report) error {
	if len(rep.App) > maxResultString {
		return fmt.Errorf("harness: report app name length %d out of range", len(rep.App))
	}
	if rep.Cores < 0 || rep.Cores > maxCellCores {
		return fmt.Errorf("harness: report cores %d out of range", rep.Cores)
	}
	if len(rep.Instances)+len(rep.Candidates) > maxReportInstances {
		return fmt.Errorf("harness: report has %d instances, limit %d",
			len(rep.Instances)+len(rep.Candidates), maxReportInstances)
	}
	for _, group := range [][]core.Instance{rep.Instances, rep.Candidates} {
		for i := range group {
			if err := validateInstance(&group[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateInstance(in *core.Instance) error {
	if len(in.Object.Name) > maxResultString {
		return fmt.Errorf("harness: object name length %d out of range", len(in.Object.Name))
	}
	if len(in.Object.Stack) > maxStackFrames {
		return fmt.Errorf("harness: %d stack frames, limit %d", len(in.Object.Stack), maxStackFrames)
	}
	for _, f := range in.Object.Stack {
		if len(f.File) > maxResultString || len(f.Func) > maxResultString {
			return fmt.Errorf("harness: stack frame string out of range")
		}
	}
	if len(in.Assessment.Threads) > maxResultRecords {
		return fmt.Errorf("harness: %d thread assessments, limit %d",
			len(in.Assessment.Threads), maxResultRecords)
	}
	if len(in.Lines) > maxInstanceLines {
		return fmt.Errorf("harness: %d line reports, limit %d", len(in.Lines), maxInstanceLines)
	}
	for _, l := range in.Lines {
		if len(l.Words) > maxLineWords {
			return fmt.Errorf("harness: %d word reports, limit %d", len(l.Words), maxLineWords)
		}
		for _, w := range l.Words {
			if len(w.Accesses) > maxWordAccesses {
				return fmt.Errorf("harness: %d word accesses, limit %d", len(w.Accesses), maxWordAccesses)
			}
		}
	}
	return nil
}

// RunCell executes one cell to completion in this process — the job
// queue's default executor, and what a pool worker runs for each
// assignment. Unknown workloads and workload construction panics (a
// trace: cell whose file is missing on this machine) are reported as
// errors, not crashes, so one bad cell cannot take down a worker
// serving others.
func RunCell(c Cell) (res CellResult, err error) {
	if err := c.Validate(); err != nil {
		return CellResult{}, err
	}
	if _, ok := workload.ByName(c.Workload); !ok {
		return CellResult{}, fmt.Errorf("harness: unknown workload %q", c.Workload)
	}
	// A trace cell's identity includes the content hash taken when the
	// cell was built; if this process's copy of the file differs (it was
	// rewritten after the cell was built), running it would return a
	// report for different data under the cell's ID.
	if c.TraceHash != "" {
		if local := traceHashFor(c.Workload); local != c.TraceHash {
			return CellResult{}, fmt.Errorf("harness: cell %s: local trace content hash %.12s does not match the cell's %.12s",
				c.ID(), local, c.TraceHash)
		}
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("harness: cell %s panicked: %v", c.ID(), p)
		}
	}()
	return runCell(c), nil
}
