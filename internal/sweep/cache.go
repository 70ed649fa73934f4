package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/harness"
)

// CacheSchema versions the on-disk entry layout; it is folded into every
// content hash, so a format change orphans old entries instead of
// misreading them. v2 entries carry the engine result on rule cells too
// (the sweep's access accounting sums it), where v1 stored rule cells
// without one.
const CacheSchema = "cheetah-sweep-cache/v2"

// Cache is an on-disk store of finished cell results, content-addressed
// by the hash of the cache schema and the cell's canonical ID. The job
// queue looks cells up before executing them, so finished work is never
// re-run, by this process or a later one.
//
// A cache may be size-capped with SetMaxBytes: when the stored entries
// exceed the cap, the least-recently-used ones are evicted until 7/8 of
// the cap is left. Recency is tracked by modification time, which Get
// bumps explicitly on every hit: access times are untrustworthy for
// LRU, since relatime and noatime mounts leave them stale.
type Cache struct {
	dir      string
	maxBytes int64

	mu sync.Mutex
	// size estimates the stored bytes (lazily initialized by a walk);
	// eviction recounts authoritatively, this only schedules it.
	size  int64
	sized bool
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// SetMaxBytes caps the cache's on-disk size; 0 (the default) means
// unbounded. The cap is enforced after each Put.
func (c *Cache) SetMaxBytes(n int64) {
	c.mu.Lock()
	c.maxBytes = n
	c.mu.Unlock()
}

// CacheKey returns the content hash addressing a cell's entry.
func CacheKey(c harness.Cell) string {
	h := sha256.Sum256([]byte(CacheSchema + "\n" + c.ID()))
	return hex.EncodeToString(h[:])
}

// path shards entries over 256 subdirectories by hash prefix, keeping
// directories small in large caches.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// cacheEntry is the stored form: the cell's ID is kept alongside the
// result so a hash collision or a file copied to the wrong name reads
// as a miss, never as a wrong result.
type cacheEntry struct {
	Schema string             `json:"schema"`
	Cell   string             `json:"cell"`
	Result harness.CellResult `json:"result"`
}

// Get returns the cached result for cell, if present and intact.
// Corrupt, oversized, mismatched or unvalidatable entries are treated
// as misses: the cell simply re-runs.
func (c *Cache) Get(cell harness.Cell) (harness.CellResult, bool) {
	path := c.path(CacheKey(cell))
	// Bound before reading: a corrupt multi-gigabyte file must read as
	// a miss, not as an allocation.
	if fi, err := os.Stat(path); err != nil || fi.Size() > MaxFrame {
		return harness.CellResult{}, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return harness.CellResult{}, false
	}
	res, err := decodeCacheEntry(data, cell.ID())
	if err != nil {
		return harness.CellResult{}, false
	}
	// Bump the entry's mtime, the eviction scan's recency key: atime
	// would be a no-op under relatime/noatime mounts. A failed bump only
	// ages the entry.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return res, true
}

// decodeCacheEntry parses and bounds a stored entry, requiring it to
// describe wantID. Split out so the fuzz target can drive it directly.
func decodeCacheEntry(data []byte, wantID string) (harness.CellResult, error) {
	if len(data) > MaxFrame {
		return harness.CellResult{}, fmt.Errorf("sweep: cache entry of %d bytes exceeds limit %d",
			len(data), MaxFrame)
	}
	var e cacheEntry
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return harness.CellResult{}, fmt.Errorf("sweep: bad cache entry: %w", err)
	}
	if dec.More() {
		return harness.CellResult{}, fmt.Errorf("sweep: trailing data in cache entry")
	}
	if e.Schema != CacheSchema {
		return harness.CellResult{}, fmt.Errorf("sweep: cache entry schema %q, want %q", e.Schema, CacheSchema)
	}
	if e.Cell != wantID {
		return harness.CellResult{}, fmt.Errorf("sweep: cache entry is for cell %q, want %q", e.Cell, wantID)
	}
	if err := e.Result.Validate(); err != nil {
		return harness.CellResult{}, err
	}
	return e.Result, nil
}

// Put stores a finished cell atomically (temp file + rename), so a
// crashed process can never leave a truncated entry for a later Get to
// trip over.
func (c *Cache) Put(cell harness.Cell, res harness.CellResult) error {
	b, err := json.Marshal(cacheEntry{Schema: CacheSchema, Cell: cell.ID(), Result: res})
	if err != nil {
		return err
	}
	path := c.path(CacheKey(cell))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := atomicfile.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	c.mu.Lock()
	if c.sized {
		c.size += int64(len(b))
	}
	c.mu.Unlock()
	c.evictOverBudget()
	return nil
}

// cacheEntryInfo is one stored file as seen by the eviction scan.
type cacheEntryInfo struct {
	path string
	size int64
	// used is the entry's mtime: set by Put, bumped by Get on every hit.
	used time.Time
}

// evictOverBudget enforces the size cap: when the stored entries exceed
// it, entries are removed least-recently-used-first until 7/8 of the cap
// is left, so the directory walk this takes comes once per cap/8 bytes
// stored, not on every Put at the cap. Emptied shard directories stay:
// removing one would race a concurrent Put's MkdirAll. Failures are
// ignored — eviction is hygiene, not correctness; a file that will not
// die today dies on a later Put.
func (c *Cache) evictOverBudget() {
	c.mu.Lock()
	limit := c.maxBytes
	if limit <= 0 || (c.sized && c.size <= limit) {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	entries, total := c.scan()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.size, c.sized = total, true
	if total <= limit {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].used.Equal(entries[j].used) {
			return entries[i].used.Before(entries[j].used)
		}
		return entries[i].path < entries[j].path
	})
	lowWater := limit - limit/8
	for _, e := range entries {
		if c.size <= lowWater {
			break
		}
		if os.Remove(e.path) == nil {
			c.size -= e.size
		}
	}
}

// scan walks the cache directory, returning every stored entry with its
// last-used time and the total stored size. Temp files mid-write are not
// entries and are skipped.
func (c *Cache) scan() ([]cacheEntryInfo, int64) {
	var (
		entries []cacheEntryInfo
		total   int64
	)
	_ = filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".json") || strings.HasPrefix(d.Name(), ".") {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		total += fi.Size()
		entries = append(entries, cacheEntryInfo{path: path, size: fi.Size(), used: fi.ModTime()})
		return nil
	})
	return entries, total
}
