package harness

import (
	"encoding/json"
	"testing"

	"repro/internal/pmu"
)

// TestCellJSONRoundTrip: a cell must survive the wire exactly — its ID
// (the cache key input) has to be reproducible on the other side. The
// cells cover every kind, a fixed variant, a cycle-mode PMU, a
// non-default machine and a trace workload.
func TestCellJSONRoundTrip(t *testing.T) {
	t.Parallel()
	const sample = "../../examples/tracereplay/sample.trace"
	var cells []Cell
	for _, kind := range []string{KindNative, KindProfiled, KindPredator, KindSheriff, KindRule} {
		c := Cell{Kind: kind, Workload: "linear_regression", Threads: 16, Cores: 48, Scale: 0.05}
		if kind == KindProfiled {
			c.PMU = DetectionPMU()
		}
		cells = append(cells, c)
	}
	cells = append(cells,
		Cell{Kind: KindNative, Workload: "figure1", Threads: 8, Cores: 48, Scale: 0.4, Fixed: true},
		Cell{Kind: KindProfiled, Workload: "histogram", Threads: 32, Cores: 48, Scale: 0.5, Machine: "numa2x24",
			PMU: pmu.Config{Period: 65536, Mode: pmu.CountCycles, Jitter: 64, HandlerCycles: 4500, SetupCycles: 90}},
		Cell{Kind: KindProfiled, Workload: "trace:" + sample + "@0-1", Threads: 16, Cores: 48, Scale: 1,
			PMU: DetectionPMU(), TraceHash: TraceContentHash(sample)},
	)
	for _, cell := range cells {
		if err := cell.Validate(); err != nil {
			t.Fatalf("%s: %v", cell.ID(), err)
		}
		b, err := json.Marshal(cell)
		if err != nil {
			t.Fatal(err)
		}
		var back Cell
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != cell {
			t.Fatalf("cell changed across JSON round trip:\nbefore %+v\nafter  %+v", cell, back)
		}
		if back.ID() != cell.ID() {
			t.Fatalf("ID changed across round trip: %q vs %q", cell.ID(), back.ID())
		}
	}
}

// TestCellIdentityPinned pins the identity of three cells — a default
// profiled cell, a numa2x24 cell and a trace cell — to literal strings.
// A cell's ID keys the sweep cache and its JSON rides the wire, so a
// change to either orphans every cached result and every running
// worker; the literals are the values the identity had before the
// scheduler field left it.
func TestCellIdentityPinned(t *testing.T) {
	t.Parallel()
	const sample = "../../examples/tracereplay/sample.trace"
	cases := []struct {
		cell     Cell
		id, wire string
	}{
		{
			cell: Cell{Kind: KindProfiled, Workload: "linear_regression", Threads: 16, Cores: 48, Scale: 1, PMU: DetectionPMU()},
			id:   "profiled|linear_regression|t16|c48|s1|ffalse|pmu64,0,24,4,0",
			wire: `{"kind":"profiled","workload":"linear_regression","threads":16,"cores":48,"scale":1,"pmu":{"Period":64,"Mode":0,"Jitter":24,"HandlerCycles":4,"SetupCycles":0}}`,
		},
		{
			cell: Cell{Kind: KindNative, Workload: "histogram", Threads: 16, Cores: 48, Scale: 0.5, Machine: "numa2x24"},
			id:   "native|histogram|t16|c48|s0.5|ffalse|pmu0,0,0,0,0|mnuma2x24",
			wire: `{"kind":"native","workload":"histogram","threads":16,"cores":48,"scale":0.5,"pmu":{"Period":0,"Mode":0,"Jitter":0,"HandlerCycles":0,"SetupCycles":0},"machine":"numa2x24"}`,
		},
		{
			cell: Cell{Kind: KindProfiled, Workload: "trace:" + sample, Threads: 16, Cores: 48, Scale: 1, PMU: DetectionPMU(),
				TraceHash: TraceContentHash(sample)},
			id: "profiled|trace:" + sample + "|t16|c48|s1|ffalse|pmu64,0,24,4,0" +
				"|th80666eaf24b09f8231f6d47032fe0009002eb9bd83bf0621245cdf855ae0bcb4",
		},
	}
	for _, c := range cases {
		if err := c.cell.Validate(); err != nil {
			t.Errorf("%s: %v", c.id, err)
		}
		if got := c.cell.ID(); got != c.id {
			t.Errorf("ID() = %q, want %q", got, c.id)
		}
		if c.wire == "" {
			continue
		}
		b, err := json.Marshal(c.cell)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.wire {
			t.Errorf("JSON = %s, want %s", b, c.wire)
		}
	}
}

// TestCellValidateBounds: decoded cells are external input; every field
// must be range-checked.
func TestCellValidateBounds(t *testing.T) {
	t.Parallel()
	good := Cell{Kind: KindNative, Workload: "figure1", Threads: 4, Cores: 48, Scale: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid cell rejected: %v", err)
	}
	bad := []Cell{
		{Kind: "exec-anything", Workload: "figure1", Threads: 4, Cores: 48, Scale: 0.1},
		{Kind: KindNative, Workload: "", Threads: 4, Cores: 48, Scale: 0.1},
		{Kind: KindNative, Workload: "figure1", Threads: 0, Cores: 48, Scale: 0.1},
		{Kind: KindNative, Workload: "figure1", Threads: 1 << 20, Cores: 48, Scale: 0.1},
		{Kind: KindNative, Workload: "figure1", Threads: 4, Cores: -1, Scale: 0.1},
		{Kind: KindNative, Workload: "figure1", Threads: 4, Cores: 48, Scale: 0},
		{Kind: KindNative, Workload: "figure1", Threads: 4, Cores: 48, Scale: -3},
		{Kind: KindNative, Workload: "figure1", Threads: 4, Cores: 48, Scale: 1e30},
		{Kind: KindProfiled, Workload: "figure1", Threads: 4, Cores: 48, Scale: 0.1,
			PMU: pmu.Config{Period: 1 << 60}},
		{Kind: KindProfiled, Workload: "figure1", Threads: 4, Cores: 48, Scale: 0.1,
			PMU: pmu.Config{Mode: 7}},
	}
	for _, cell := range bad {
		if err := cell.Validate(); err == nil {
			t.Errorf("invalid cell accepted: %+v", cell)
		}
	}
}

// TestRunCellErrors: a worker must get an error, never a crash, for
// cells it cannot run.
func TestRunCellErrors(t *testing.T) {
	t.Parallel()
	if _, err := RunCell(Cell{Kind: KindNative, Workload: "no_such_app", Threads: 2, Cores: 8, Scale: 0.05}); err == nil {
		t.Error("unknown workload: want error")
	}
	if _, err := RunCell(Cell{Kind: "bogus", Workload: "figure1", Threads: 2, Cores: 8, Scale: 0.05}); err == nil {
		t.Error("invalid cell: want error")
	}
	// A trace cell whose file does not exist panics inside workload
	// Build; RunCell must convert that to an error.
	if _, err := RunCell(Cell{Kind: KindNative, Workload: "trace:/no/such.trace", Threads: 2, Cores: 8, Scale: 0.05}); err == nil {
		t.Error("missing trace file: want error")
	}
}
