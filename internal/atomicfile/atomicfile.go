// Package atomicfile writes files atomically: content is staged to a
// temp file in the destination directory and renamed into place on
// commit, so readers never observe a partially-written file and an
// interrupted writer leaves the destination untouched. It is the one
// implementation behind every atomic write in the repo (sweep cache
// entries, imported, indexed and synthesized traces).
package atomicfile

import (
	"os"
	"path/filepath"
)

// W stages one atomic write. It is an io.Writer over the temp file;
// call Commit to rename into place or Abort to discard. Exactly one of
// the two should be called (both are idempotent, and Abort after a
// successful Commit is a no-op).
type W struct {
	f    *os.File
	path string
	done bool
}

// Create stages a write to path, placing the temp file in path's
// directory so the final rename cannot cross filesystems.
func Create(path string) (*W, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return nil, err
	}
	return &W{f: f, path: path}, nil
}

// Write implements io.Writer.
func (w *W) Write(p []byte) (int, error) { return w.f.Write(p) }

// File exposes the underlying temp file for callers that need more
// than io.Writer (e.g. Chmod).
func (w *W) File() *os.File { return w.f }

// Commit closes the temp file and renames it over the destination.
func (w *W) Commit() error {
	if w.done {
		return nil
	}
	w.done = true
	if err := w.f.Close(); err != nil {
		os.Remove(w.f.Name())
		return err
	}
	if err := os.Rename(w.f.Name(), w.path); err != nil {
		os.Remove(w.f.Name())
		return err
	}
	return nil
}

// Abort discards the staged write, leaving the destination untouched.
func (w *W) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	os.Remove(w.f.Name())
}

// WriteFile atomically replaces path's content with data at the given
// permissions.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	w, err := Create(path)
	if err != nil {
		return err
	}
	defer w.Abort()
	if _, err := w.Write(data); err != nil {
		return err
	}
	if err := w.File().Chmod(perm); err != nil {
		return err
	}
	return w.Commit()
}
