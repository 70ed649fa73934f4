package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a write must go through a temp file plus rename
// so a crash mid-write can never truncate an existing file, must
// replace existing content, and must leave no temp files behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	if err := WriteFile(path, []byte("first\n"), 0o644); err != nil {
		t.Fatalf("initial write: %v", err)
	}
	if err := WriteFile(path, []byte("second\n"), 0o644); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second\n" {
		t.Errorf("content = %q, want %q", got, "second\n")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v (err %v), want 0644", fi.Mode(), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want only the written file: %v", len(entries), entries)
	}
	// Writing into a missing directory must fail without creating
	// anything.
	if err := WriteFile(filepath.Join(dir, "no", "such", "dir.json"), []byte("x"), 0o644); err == nil {
		t.Error("write into missing directory succeeded")
	}
}
