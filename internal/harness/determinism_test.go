package harness

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestParallelHarnessMatchesSerial guards the concurrent runner: a
// parallel sweep must be indistinguishable from a forced-serial one —
// byte-identical formatted output and identical row data. Both sweeps use
// private runners (Workers != 0 bypasses the shared memoizing runner), so
// each genuinely executes its cells.
func TestParallelHarnessMatchesSerial(t *testing.T) {
	t.Parallel()
	c := Config{Scale: 0.1, Threads: 8}
	if testing.Short() {
		c.Scale = 0.04
	}

	serialCfg := c
	serialCfg.Workers = 1
	parallelCfg := c
	parallelCfg.Workers = 8

	serial := RunAll(serialCfg)
	parallel := RunAll(parallelCfg)

	sf, pf := serial.Format(), parallel.Format()
	if sf != pf {
		t.Errorf("parallel Format() diverges from serial:\n%s", firstDiff(sf, pf))
	}
	if !reflect.DeepEqual(serial.Fig1, parallel.Fig1) {
		t.Errorf("Fig1 rows diverge:\nserial:   %+v\nparallel: %+v", serial.Fig1, parallel.Fig1)
	}
	if !reflect.DeepEqual(serial.Fig4, parallel.Fig4) {
		t.Errorf("Fig4 rows diverge:\nserial:   %+v\nparallel: %+v", serial.Fig4, parallel.Fig4)
	}
	if !reflect.DeepEqual(serial.Table1, parallel.Table1) {
		t.Errorf("Table1 rows diverge:\nserial:   %+v\nparallel: %+v", serial.Table1, parallel.Table1)
	}
	if !reflect.DeepEqual(serial.Fig7, parallel.Fig7) {
		t.Errorf("Fig7 rows diverge:\nserial:   %+v\nparallel: %+v", serial.Fig7, parallel.Fig7)
	}
	if !reflect.DeepEqual(serial.Compare, parallel.Compare) {
		t.Errorf("Compare rows diverge:\nserial:   %+v\nparallel: %+v", serial.Compare, parallel.Compare)
	}
}

// TestSharedCellsAreExecutedOnce checks the runner's memoization: a full
// sweep requests the same native baselines from several experiments, so
// distinct executed cells must number well below total requests.
func TestSharedCellsAreExecutedOnce(t *testing.T) {
	t.Parallel()
	r := NewRunner(0)
	c := Config{Scale: 0.04, Threads: 8}
	RunAllWith(r, c)
	cells := r.CellsRun()
	if cells == 0 {
		t.Fatal("no cells executed")
	}
	// Re-running the same sweep on the same runner must execute nothing new.
	RunAllWith(r, c)
	if again := r.CellsRun(); again != cells {
		t.Errorf("re-run executed %d new cells, want 0", again-cells)
	}
}

// firstDiff renders the first line where a and b disagree.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return "line " + strconv.Itoa(i+1) + ":\nserial:   " + al[i] + "\nparallel: " + bl[i]
		}
	}
	return "outputs differ in length: serial " + strconv.Itoa(len(al)) +
		" lines, parallel " + strconv.Itoa(len(bl))
}
