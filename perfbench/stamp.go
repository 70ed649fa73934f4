package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// stamp records everything a result set depends on besides the code
// under test. Two result sets compare only when their stamps agree in
// every field but Commit.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	Machine    string `json:"machine"`
	Sched      string `json:"sched"`
	Threads    int    `json:"threads"` // per-phase worker threads
	// Inputs lists the seeded inputs as workload/threads/scale; each
	// input's scale is calibrated to the workload's access target.
	Inputs   string `json:"inputs"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	// Digest is the sha256 of the run's checked output; every run of one
	// commit, workload and seed prints the same digest.
	Digest string `json:"digest"`
}

// compareStamps refuses to compare result sets taken under different
// conditions: it names the first field, other than the commit, in which
// the two stamps differ.
func compareStamps(a, b stamp) error {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	t := va.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "Commit" {
			continue
		}
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Errorf("result sets are not comparable: stamp field %s differs (%v vs %v)",
				f.Tag.Get("json"), va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	return nil
}

// sourceCommit identifies the code under test: the git revision when the
// tree is a clean checkout, else a digest of every Go source and module
// file outside the benchmark's own directory and build outputs.
func sourceCommit(root string) string {
	cmd := exec.Command("git", "status", "--porcelain", "--untracked-files=no")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil && len(strings.TrimSpace(string(out))) == 0 {
		cmd = exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if rev, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(rev))
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == benchDir || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:40]
}
