package sweep

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestCacheRoundTrip: Put then Get must return the stored result
// exactly, and distinct cells must not alias.
func TestCacheRoundTrip(t *testing.T) {
	t.Parallel()
	cache, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cell := sampleCell()
	res := sampleResult()
	if _, ok := cache.Get(cell); ok {
		t.Fatal("hit on empty cache")
	}
	if err := cache.Put(cell, res); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Get(cell)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("cache changed the result:\nput %+v\ngot %+v", res, got)
	}
	other := cell
	other.Threads = 8
	if _, ok := cache.Get(other); ok {
		t.Error("different cell hit the same entry")
	}
}

// TestCacheCorruptEntryIsAMiss: damaged or foreign entries must read
// as misses (the cell re-runs), never as wrong results or crashes.
func TestCacheCorruptEntryIsAMiss(t *testing.T) {
	t.Parallel()
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := sampleCell()
	if err := cache.Put(cell, sampleResult()); err != nil {
		t.Fatal(err)
	}
	path := cache.path(CacheKey(cell))

	for name, data := range map[string][]byte{
		"truncated":    []byte(`{"schema":"cheetah-sweep-cache/v1","cell":`),
		"not json":     []byte("garbage"),
		"wrong schema": []byte(`{"schema":"other/v9","cell":"x","result":{"result":{}}}`),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.Get(cell); ok {
			t.Errorf("%s entry returned a hit", name)
		}
	}

	// An intact entry under the wrong cell's key (a copied file) is a
	// miss too: the stored cell ID must match.
	other := cell
	other.Threads = 8
	if err := cache.Put(cell, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(cache.path(CacheKey(other))), 0o755); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(cache.path(CacheKey(cell)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(CacheKey(other)), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(other); ok {
		t.Error("entry copied under another cell's key returned a hit")
	}
}

// agedEntry stores a cell result and backdates the entry file, so
// eviction order is deterministic regardless of test speed.
func agedEntry(t *testing.T, c *Cache, cell harness.Cell, age time.Duration) string {
	t.Helper()
	if err := c.Put(cell, sampleResult()); err != nil {
		t.Fatal(err)
	}
	path := c.path(CacheKey(cell))
	old := time.Now().Add(-age)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	return path
}

// cellWithThreads varies a sample cell's identity.
func cellWithThreads(n int) harness.Cell {
	c := sampleCell()
	c.Threads = n
	return c
}

// TestCacheEvictsOldestOverCap: a size-capped cache sheds its
// least-recently-used entries from previous sweeps — and only those —
// when a Put takes it over budget.
func TestCacheEvictsOldestOverCap(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "cache")

	// A previous sweep leaves four entries with distinct ages.
	prev, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	var entrySize int64
	for i := 0; i < 4; i++ {
		p := agedEntry(t, prev, cellWithThreads(2+i), time.Duration(40-10*i)*time.Minute)
		paths = append(paths, p)
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		entrySize = fi.Size()
	}

	// A new sweep opens the same directory capped at about three
	// entries, reuses one old entry (a Get hit: now protected and
	// freshly touched), and stores one new cell.
	cur, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cur.SetMaxBytes(3*entrySize + entrySize/2)
	if _, ok := cur.Get(cellWithThreads(2)); !ok {
		t.Fatal("warm entry missed")
	}
	if err := cur.Put(cellWithThreads(100), sampleResult()); err != nil {
		t.Fatal(err)
	}

	// The two oldest unprotected leftovers (threads=3, threads=4) must
	// be gone; the hit entry, the youngest leftover and the new entry
	// survive.
	if _, err := os.Stat(paths[1]); !os.IsNotExist(err) {
		t.Error("oldest unprotected entry survived eviction")
	}
	if _, err := os.Stat(paths[2]); !os.IsNotExist(err) {
		t.Error("second-oldest unprotected entry survived eviction")
	}
	if _, ok := cur.Get(cellWithThreads(2)); !ok {
		t.Error("entry hit by the running sweep was evicted")
	}
	if _, ok := cur.Get(cellWithThreads(5)); !ok {
		t.Error("youngest old entry was evicted despite fitting the budget")
	}
	if _, ok := cur.Get(cellWithThreads(100)); !ok {
		t.Error("the running sweep's own entry was evicted")
	}
}

// TestLongLivedCacheStaysUnderCap: one Cache that keeps storing past
// its cap, as a daemon's does, holds the directory under the cap. The
// entries it wrote itself are evicted like any others.
func TestLongLivedCacheStaysUnderCap(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 4 << 10
	cache.SetMaxBytes(limit)
	for i := 0; i < 200; i++ {
		if err := cache.Put(cellWithThreads(2+i), sampleResult()); err != nil {
			t.Fatal(err)
		}
	}
	var entries, total int64
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		entries++
		total += fi.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total > limit || entries == 0 {
		t.Errorf("after 200 Puts: %d entries hold %d bytes, want 1 or more under the %d-byte cap", entries, total, limit)
	}
}

// TestCacheEvictsToLowWater: a Put that takes a capped cache over its
// cap evicts down to 7/8 of the cap, not just under it, so the directory
// walk that enforces the cap comes once per cap/8 bytes stored instead
// of with every later Put.
func TestCacheEvictsToLowWater(t *testing.T) {
	t.Parallel()
	cache, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(cellWithThreads(2), sampleResult()); err != nil {
		t.Fatal(err)
	}
	_, entrySize := cache.scan()
	limit := 16*entrySize + entrySize/2
	cache.SetMaxBytes(limit)
	for i := 3; i <= 18; i++ {
		if err := cache.Put(cellWithThreads(i), sampleResult()); err != nil {
			t.Fatal(err)
		}
	}
	entries, total := cache.scan()
	if lowWater := limit - limit/8; total > lowWater {
		t.Errorf("after 17 Puts of about %d bytes under a %d-byte cap: %d entries hold %d bytes, want at most 7/8 of the cap, %d",
			entrySize, limit, len(entries), total, lowWater)
	}
}

// TestCacheHitRecencyOutlivesTheSweep: a Get hit bumps the entry's
// mtime, so its recency is visible to later sweeps — an old entry that
// was recently hit survives a later sweep's eviction while an untouched
// (and originally younger) peer is evicted. This is the property atime
// ordering silently lost on relatime mounts, where reads never update
// the timestamp the eviction scan sorted by.
func TestCacheHitRecencyOutlivesTheSweep(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "cache")

	// Two entries from an old sweep; the one we will hit is the OLDER
	// of the pair, so only the hit-time bump can save it.
	prev, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	hitPath := agedEntry(t, prev, cellWithThreads(2), time.Hour)
	untouchedPath := agedEntry(t, prev, cellWithThreads(3), 30*time.Minute)
	fi, err := os.Stat(hitPath)
	if err != nil {
		t.Fatal(err)
	}
	entrySize := fi.Size()

	// Sweep A hits the older entry and exits (a fresh Cache instance,
	// so no protected set survives into sweep B).
	mid, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mid.Get(cellWithThreads(2)); !ok {
		t.Fatal("warm entry missed")
	}

	// Sweep B stores one new cell under a two-and-a-half-entry budget,
	// forcing one of the leftovers out.
	cur, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cur.SetMaxBytes(2*entrySize + entrySize/2)
	if err := cur.Put(cellWithThreads(100), sampleResult()); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(hitPath); err != nil {
		t.Error("entry hit by the previous sweep was evicted despite its recency bump")
	}
	if _, err := os.Stat(untouchedPath); !os.IsNotExist(err) {
		t.Error("untouched entry survived eviction ahead of it")
	}
}

// TestCacheUncappedNeverEvicts: the default (no cap) keeps everything —
// the pre-eviction behaviour.
func TestCacheUncappedNeverEvicts(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "cache")
	prev, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	agedEntry(t, prev, cellWithThreads(2), time.Hour)
	cur, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Put(cellWithThreads(3), sampleResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(cellWithThreads(2)); !ok {
		t.Error("uncapped cache evicted an old entry")
	}
}
