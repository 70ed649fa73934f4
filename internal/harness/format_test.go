package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the Format* golden files")

// TestFormatGolden pins every table renderer's output byte-for-byte
// against checked-in golden files, over hand-built rows that exercise
// each column's formatting (percentages, hex quirks, n/a markers,
// reported/missed flags). Formatting drift then fails here, with a
// readable diff, before it fails the CLI cmp steps whose reports embed
// these tables. Regenerate with:
//
//	go test ./internal/harness -run TestFormatGolden -update
func TestFormatGolden(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		got  string
	}{
		{"figure1", FormatFigure1([]Fig1Row{
			{Threads: 1, Expectation: 128000, Reality: 128000, Fixed: 127500},
			{Threads: 2, Expectation: 64000, Reality: 301000, Fixed: 65000},
			{Threads: 8, Expectation: 16000, Reality: 208640, Fixed: 17200},
		})},
		{"figure4", FormatFigure4([]Fig4Row{
			{App: "blackscholes", Native: 1000000, Profiled: 1021000, Threads: 16, Samples: 412},
			{App: "kmeans", Native: 500000, Profiled: 650000, Threads: 801, Samples: 90},
			{App: "x264", Native: 700000, Profiled: 830500, Threads: 128, Samples: 141},
		})},
		{"figure7", FormatFigure7([]Fig7Row{
			{App: "histogram", WithFS: 100500, NoFS: 100300, CheetahReports: false, PredatorReports: true},
			{App: "word_count", WithFS: 99800, NoFS: 100000, CheetahReports: true, PredatorReports: true},
		})},
		{"table1", FormatTable1([]Table1Row{
			{App: "linear_regression", Threads: 16, Predict: 7.53, Real: 8.1, Detected: true},
			{App: "streamcluster", Threads: 2, Predict: 0, Real: 1.05, Detected: false},
		})},
		{"compare", FormatCompare([]CompareRow{
			{App: "linear_regression", FS: workload.SignificantFS, Site: "lr.c:42",
				Cheetah: true, Predator: true, Sheriff: false,
				CheetahOverhead: 1.07, PredatorOverhead: 6.1, SheriffOverhead: 11.2},
			{App: "histogram", FS: workload.MinorFS, Site: "hist.c:7",
				Cheetah: false, Predator: true, Sheriff: false,
				CheetahOverhead: 1.01, PredatorOverhead: 5.4, SheriffOverhead: 9.8},
			{App: "blackscholes", FS: workload.NoFS,
				CheetahOverhead: 1.005, PredatorOverhead: 4.9, SheriffOverhead: 8.75},
		})},
		{"period_ablation", FormatPeriodAblation([]PeriodRow{
			{Period: 1024, Samples: 9000, Detected: true, Predict: 7.9, Overhead: 0.34},
			{Period: 65536, Samples: 140, Detected: true, Predict: 7.1, Overhead: 0.07},
			{Period: 1048576, Samples: 9, Detected: false, Predict: 0, Overhead: 0.004},
		})},
		{"rule_ablation", FormatRuleAblation([]RuleRow{
			{App: "figure1", GroundTruth: 52000, TwoEntry: 51800, Ownership: 52000,
				TwoEntryBytes: 16, OwnershipBytes: 64},
			{App: "streamcluster", GroundTruth: 1200, TwoEntry: 1100, Ownership: 1190,
				TwoEntryBytes: 16, OwnershipBytes: 64},
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "format", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(tc.got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if tc.got != string(want) {
				t.Errorf("%s drifted from golden file:\n%s", tc.name, firstDiff(string(want), tc.got))
			}
		})
	}
}
