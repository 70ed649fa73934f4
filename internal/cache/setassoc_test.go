package cache

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/mem"
)

// stampSetAssoc is the reference for setAssoc: the stamp-based LRU set
// the simulator used before its sets became keys-only, kept unchanged
// apart from its names. Recency lives in a stamp per way, not in the
// order of the ways. It has one known defect, which the property test
// steps around: insert fills the first empty way before it looks at
// later ways, so inserting a line that is resident behind an empty way
// stores a second copy.
type stampSetAssoc struct {
	sets int
	ways int
	// mask is sets-1 when sets is a power of two (the common case for the
	// private caches), letting setFor skip the modulo; -1 otherwise.
	mask int
	// keys[set*ways+way] holds line+1, so the zero value of a freshly
	// allocated (and therefore zeroed) array already means "empty way".
	keys []uint64
	// lru[set*ways+way] holds a recency stamp; larger is more recent.
	lru   []uint64
	clock uint64
}

func newStampSetAssoc(sets, ways int) *stampSetAssoc {
	if sets <= 0 || ways <= 0 {
		panic("cache: set-associative structure needs positive sets and ways")
	}
	n := sets * ways
	backing := make([]uint64, 2*n)
	c := &stampSetAssoc{
		sets: sets,
		ways: ways,
		mask: -1,
		keys: backing[:n:n],
		lru:  backing[n:],
	}
	if sets&(sets-1) == 0 {
		c.mask = sets - 1
	}
	return c
}

func (c *stampSetAssoc) setFor(line uint64) int {
	if c.mask >= 0 {
		return int(line) & c.mask
	}
	return int(line % uint64(c.sets))
}

// touch reports whether line is present, refreshing its LRU stamp if so.
// A hit found in a later way is swapped to the set's first way so bursty
// re-touches match on the first comparison; replacement semantics are
// unaffected, since recency lives in the stamps, not the positions.
func (c *stampSetAssoc) touch(line uint64) bool {
	base := c.setFor(line) * c.ways
	keys := c.keys[base : base+c.ways]
	key := line + 1
	for w := range keys {
		if keys[w] == key {
			c.clock++
			if w != 0 {
				lru := c.lru[base : base+c.ways]
				keys[0], keys[w] = keys[w], keys[0]
				lru[0], lru[w] = lru[w], lru[0]
				c.lru[base] = c.clock
				return true
			}
			c.lru[base+w] = c.clock
			return true
		}
	}
	return false
}

// insert adds line, evicting the LRU way of its set when full. Inserting a
// line that is already present just refreshes it.
func (c *stampSetAssoc) insert(line uint64) {
	base := c.setFor(line) * c.ways
	key := line + 1
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.keys[i] == key {
			c.clock++
			c.lru[i] = c.clock
			return
		}
		if c.keys[i] == 0 {
			victim = i
			// An empty way always wins over evicting a resident line.
			c.clock++
			c.keys[i] = key
			c.lru[i] = c.clock
			return
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.clock++
	c.keys[victim] = key
	c.lru[victim] = c.clock
}

// remove drops line if present (coherence invalidation or write-back).
func (c *stampSetAssoc) remove(line uint64) {
	base := c.setFor(line) * c.ways
	key := line + 1
	for w := 0; w < c.ways; w++ {
		if c.keys[base+w] == key {
			c.keys[base+w] = 0
			c.lru[base+w] = 0
			return
		}
	}
}

// residentBehindEmpty reports whether line is resident behind an empty
// way of its set: the case in which the reference's insert duplicates it.
func (c *stampSetAssoc) residentBehindEmpty(line uint64) bool {
	base := c.setFor(line) * c.ways
	empty := false
	for w := 0; w < c.ways; w++ {
		switch c.keys[base+w] {
		case 0:
			empty = true
		case line + 1:
			return empty
		}
	}
	return false
}

// recency returns set's ways as the keys-only set must hold them: the
// resident keys from most to least recently used, then the empty ways.
func (c *stampSetAssoc) recency(set int) []uint64 {
	base := set * c.ways
	ways := make([]int, 0, c.ways)
	for w := 0; w < c.ways; w++ {
		if c.keys[base+w] != 0 {
			ways = append(ways, base+w)
		}
	}
	sort.Slice(ways, func(i, j int) bool { return c.lru[ways[i]] > c.lru[ways[j]] })
	out := make([]uint64, c.ways)
	for i, w := range ways {
		out[i] = c.keys[w]
	}
	return out
}

// TestSetAssocMatchesStampReference drives setAssoc and the stamp-based
// reference with the same seeded random touch/insert/remove sequences on
// small sets. Every touch must hit or miss in both, and after every
// operation each set must hold the same lines in the same recency order.
// Sizes grow with the case index, so the first failing case is small.
func TestSetAssocMatchesStampReference(t *testing.T) {
	cases := 2000
	if testing.Short() {
		cases = 200
	}
	skipped := 0
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		sets := 1 + rng.Intn(4)
		ways := 1 + rng.Intn(8)
		universe := sets*ways + 1 + rng.Intn(2*sets*ways)
		steps := 4 + i/8
		got, ref := newSetAssoc(sets, ways), newStampSetAssoc(sets, ways)
		for step := 0; step < steps; step++ {
			line := uint64(rng.Intn(universe))
			switch op := rng.Intn(3); op {
			case 0:
				if g, r := got.touch(line), ref.touch(line); g != r {
					t.Fatalf("case %d (%d sets x %d ways) step %d: touch(%d) = %v, reference %v",
						i, sets, ways, step, line, g, r)
				}
			case 1:
				if ref.residentBehindEmpty(line) {
					skipped++
					continue
				}
				got.insert(line)
				ref.insert(line)
			case 2:
				got.remove(line)
				ref.remove(line)
			}
			for set := 0; set < sets; set++ {
				g := got.keys[set*ways : (set+1)*ways]
				if r := ref.recency(set); !slices.Equal(g, r) {
					t.Fatalf("case %d (%d sets x %d ways) step %d: set %d holds keys %v, reference %v",
						i, sets, ways, step, set, g, r)
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("no insert behind an empty way was drawn; the exclusion is untested")
	}
}

// TestSetAssocReinsertAfterRemove is the reference's defect as a unit
// case: with set {A, B}, removing A and re-inserting B must leave one
// copy of B, so that removing B empties the set. (The reference stores B
// again in A's way, and B still hits.)
func TestSetAssocReinsertAfterRemove(t *testing.T) {
	const a, b = 0, 1
	c := newSetAssoc(1, 2)
	c.insert(a)
	c.insert(b)
	c.remove(a)
	c.insert(b)
	c.remove(b)
	if c.touch(b) {
		t.Error("B still hits after it was removed")
	}
}

// TestUpgradeRefillKeepsOneCopy is the simulator-level regression for a
// private cache holding one line twice. A writer upgrading a shared line
// it already holds is filled again; when an invalidation has left an
// empty way ahead of the line in its L1 set, a fill that took the first
// empty way stored a second copy, and the wasted way evicted a line that
// should have stayed.
func TestUpgradeRefillKeepsOneCopy(t *testing.T) {
	s := newTestSim(2)
	sets := uint64(s.cfg.L1Sets)
	// Every line here maps to L1 set 0 and to distinct L2 sets.
	addr := func(k uint64) mem.Addr { return mem.Addr(k * sets << 6) }
	x, p, q := addr(1), addr(2), addr(3)
	s.Access(0, x, false)
	s.Access(0, p, false)
	s.Access(0, q, false)
	s.Access(1, q, false) // core 1 shares Q
	s.Access(1, p, true)  // invalidates core 0's P: an empty way ahead of Q
	s.Access(0, q, true)  // upgrade refills Q into core 0
	l1 := s.l1[0]
	copies := 0
	for _, k := range l1.keys[:l1.ways] {
		if k == uint64(q.Line())+1 {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("core 0's L1 set holds %d copies of Q, want 1", copies)
	}
	// X, Q and six more lines fill the 8-way set exactly: X must stay.
	for k := uint64(4); k < 4+uint64(s.cfg.L1Ways)-2; k++ {
		s.Access(0, addr(k), false)
	}
	if lat := s.Access(0, x, false); lat != s.cfg.Lat.L1Hit {
		t.Errorf("re-reading X cost %d cycles, want an L1 hit (%d)", lat, s.cfg.Lat.L1Hit)
	}
}
