package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// TestCacheMaxBytesFlagValidation: the eviction cap requires a cache
// directory and a non-negative value; either misuse is a usage error,
// not a daemon that silently runs unbounded.
func TestCacheMaxBytesFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name, diag string
		args       []string
	}{
		{"without -cache-dir", "-cache-dir", []string{"-cache-max-bytes", "1024"}},
		{"negative", ">= 0", []string{"-cache-dir", t.TempDir(), "-cache-max-bytes", "-5"}},
	} {
		type exit struct {
			code   int
			stderr string
		}
		done := make(chan exit, 1)
		go func() {
			var errOut strings.Builder
			code := run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...), io.Discard, &errOut)
			done <- exit{code, errOut.String()}
		}()
		select {
		case e := <-done:
			if e.code != 2 {
				t.Errorf("-cache-max-bytes %s: exit %d, want 2", tc.name, e.code)
			}
			if !strings.Contains(e.stderr, tc.diag) {
				t.Errorf("-cache-max-bytes %s: stderr missing %q:\n%s", tc.name, tc.diag, e.stderr)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("-cache-max-bytes %s: the daemon started instead of exiting 2", tc.name)
		}
	}
}
