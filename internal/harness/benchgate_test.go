package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_harness.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadBenchBaseline(t *testing.T) {
	path := writeBaseline(t, `{
  "schema": "cheetah-bench/v7",
  "git_commit": "abc",
  "accesses": 296584511,
  "accesses_per_sec": 8897535.35,
  "wall_seconds": 33.3
}
`)
	e, err := LoadBenchBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if e.Schema != "cheetah-bench/v7" || e.AccessesPerSec != 8897535.35 {
		t.Fatalf("parsed entry mismatch: %+v", e)
	}
}

// TestLoadCommittedBenchBaseline: the CI gate still reads the committed
// BENCH_harness.json, whose older schema carries sched and replay_mode
// stamps that BenchEntry no longer has.
func TestLoadCommittedBenchBaseline(t *testing.T) {
	e, err := LoadBenchBaseline("../../BENCH_harness.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(e.Schema, "cheetah-bench/") || e.AccessesPerSec <= 0 || e.Accesses == 0 {
		t.Fatalf("committed baseline parsed as %+v", e)
	}
}

func TestLoadBenchBaselineRejectsNonBenchFiles(t *testing.T) {
	cases := map[string]string{
		"missing schema": `{"accesses_per_sec": 1}`,
		"wrong schema":   `{"schema": "cheetah-sweep-cache/v2"}`,
		"not json":       `accesses_per_sec: 1`,
	}
	for name, content := range cases {
		if _, err := LoadBenchBaseline(writeBaseline(t, content)); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
	if _, err := LoadBenchBaseline(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file: want error, got none")
	}
}

func TestCheckBenchGate(t *testing.T) {
	baseline := BenchEntry{Schema: BenchSchema, Accesses: 1000, AccessesPerSec: 1e6, WallSeconds: 30}
	entry := func(aps float64) BenchEntry {
		return BenchEntry{Schema: BenchSchema, Accesses: 1000, AccessesPerSec: aps, WallSeconds: 30}
	}

	tests := []struct {
		name     string
		current  BenchEntry
		ok, skip bool
	}{
		{"equal throughput passes", entry(1e6), true, false},
		{"improvement passes", entry(2.5e6), true, false},
		{"regression inside budget passes", entry(0.85e6), true, false},
		{"regression at the edge passes", entry(0.801e6), true, false},
		{"regression past budget fails", entry(0.79e6), false, false},
		{"collapse fails", entry(1e3), false, false},
		{"zero accesses skips", BenchEntry{AccessesPerSec: 1e6, WallSeconds: 30}, true, true},
		{"zero throughput skips", BenchEntry{Accesses: 1000, WallSeconds: 30}, true, true},
		{"too-short sweep skips",
			BenchEntry{Accesses: 1000, AccessesPerSec: 0.1e6, WallSeconds: 0.2}, true, true},
	}
	for _, tc := range tests {
		v := CheckBenchGate(baseline, tc.current, DefaultMaxRegression)
		if v.OK != tc.ok || v.Skipped != tc.skip {
			t.Errorf("%s: got OK=%v Skipped=%v (%s), want OK=%v Skipped=%v",
				tc.name, v.OK, v.Skipped, v.Reason, tc.ok, tc.skip)
		}
		if v.Reason == "" {
			t.Errorf("%s: verdict has no reason", tc.name)
		}
	}
}

// A pre-v6 baseline has no throughput stamp; the gate must skip rather
// than fail, so the gate can land before the baseline is regenerated.
func TestCheckBenchGateSkipsUnstampedBaseline(t *testing.T) {
	old := BenchEntry{Schema: "cheetah-bench/v5", WallSeconds: 30}
	cur := BenchEntry{Schema: BenchSchema, Accesses: 1000, AccessesPerSec: 1e6, WallSeconds: 30}
	v := CheckBenchGate(old, cur, DefaultMaxRegression)
	if !v.OK || !v.Skipped {
		t.Fatalf("got OK=%v Skipped=%v (%s), want skip", v.OK, v.Skipped, v.Reason)
	}
	if !strings.Contains(v.Reason, "v5") {
		t.Errorf("reason should name the unstamped schema: %s", v.Reason)
	}
}
