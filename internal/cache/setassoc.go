package cache

import "math/bits"

// setAssoc is a set-associative cache of line indices with LRU replacement.
// It tracks only presence (tags), not data — the simulator needs to know
// where a line can be found, not its contents.
//
// Each set keeps its keys in recency order, most recent first, with its
// empty ways at the tail: a hit or a fill moves the line to the front,
// eviction takes the last way, and a removal closes the gap. The order is
// the whole LRU state, so no recency stamps are stored, and a re-touch of
// a set's most recent line (the common, bursty case) writes nothing.
type setAssoc struct {
	sets int
	ways int
	// mask is sets-1 when sets is a power of two (the common case for the
	// private caches), letting setFor skip the modulo; -1 otherwise.
	mask int
	// keys[set*ways+way] holds line+1, so the zero value of a freshly
	// allocated (and therefore zeroed) array already means "empty way" —
	// simulators are built per experiment cell, and skipping an explicit
	// sentinel fill measurably cuts cell setup cost.
	keys []uint64
}

func newSetAssoc(sets, ways int) *setAssoc {
	if sets <= 0 || ways <= 0 {
		panic("cache: set-associative structure needs positive sets and ways")
	}
	c := &setAssoc{
		sets: sets,
		ways: ways,
		mask: -1,
		keys: make([]uint64, sets*ways),
	}
	if sets&(sets-1) == 0 {
		c.mask = sets - 1
	}
	return c
}

func (c *setAssoc) setFor(line uint64) int {
	if c.mask >= 0 {
		return int(line) & c.mask
	}
	return int(line % uint64(c.sets))
}

// set returns the ways of line's set, most recently used first.
func (c *setAssoc) set(line uint64) []uint64 {
	base := c.setFor(line) * c.ways
	return c.keys[base : base+c.ways : base+c.ways]
}

// toFront moves the key in way w to the front of keys, shifting the ways
// before it back by one.
func toFront(keys []uint64, w int) {
	key := keys[w]
	for ; w > 0; w-- {
		keys[w] = keys[w-1]
	}
	keys[0] = key
}

// touch reports whether line is present, making it its set's most
// recently used line if so.
func (c *setAssoc) touch(line uint64) bool {
	keys := c.set(line)
	key := line + 1
	for w, k := range keys {
		if k == key {
			toFront(keys, w)
			return true
		}
		if k == 0 {
			return false
		}
	}
	return false
}

// insert makes line its set's most recently used line, evicting the least
// recently used one when the set is full. Inserting a line that is already
// present just refreshes it.
func (c *setAssoc) insert(line uint64) {
	keys := c.set(line)
	key := line + 1
	// Stop at the line itself, at the first empty way (no resident line
	// follows one), or at the last way, whose line is the LRU victim.
	w := 0
	for w < len(keys)-1 && keys[w] != key && keys[w] != 0 {
		w++
	}
	keys[w] = key
	toFront(keys, w)
}

// remove drops line if present (coherence invalidation or write-back).
func (c *setAssoc) remove(line uint64) {
	keys := c.set(line)
	key := line + 1
	for w, k := range keys {
		if k == key {
			copy(keys[w:], keys[w+1:])
			keys[len(keys)-1] = 0
			return
		}
		if k == 0 {
			return
		}
	}
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
