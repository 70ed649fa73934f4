package cache

import "sort"

// This file holds the directory's storage layer: a paged table mapping
// cache lines to directory entries, plus the sharer set. The directory
// lookup is the hottest operation in the whole reproduction — every
// simulated memory access performs one — so the layout is built around
// how simulated programs actually touch memory: they stream through
// mostly-contiguous line ranges. Lines are grouped into pages of 256; a
// page is one flat pair of hot/cold arrays indexed directly by the low
// line bits, so a lookup is a page-hint check (or one map access on a
// page switch) plus an array index — no hashing, no probe walk — and
// consecutive lines land in adjacent memory, which the hardware
// prefetcher rides along a stream. Pages hold no pointers, so the
// garbage collector never scans them, and they never move once
// allocated, so entry pointers (and the simulator's per-core hints) stay
// valid for the simulation's lifetime; the table's gen counter therefore
// never ticks.

// dirPageShift sets the page granule: 256 lines (16 KiB of simulated
// memory) balances per-page allocation cost against density for sparse
// access patterns.
const dirPageShift = 8

// dirPageLines is the number of cache lines covered by one page.
const dirPageLines = 1 << dirPageShift

// dirPage is the directory state for one aligned 256-line range. The
// per-line payload is split by temperature — hot[i] holds the
// MESI/sharer/availability state every access reads, cold[i] the
// ground-truth counters only coherence events touch. touched marks lines
// the program has actually accessed: the zero value of a slot already
// encodes the pristine state (invalid, no sharers, zero counters), so
// first use only sets a bit.
type dirPage struct {
	hot     [dirPageLines]dirHot
	cold    [dirPageLines]dirCold
	touched [dirPageLines / 64]uint64
}

// dirTable is the paged directory.
type dirTable struct {
	// gen is the hint-invalidation epoch. Paged storage never relocates
	// entries, so it stays zero; the field remains so the simulator's
	// hint contract (compare against gen) is explicit.
	gen   uint64
	pages map[uint64]*dirPage
	used  int
	// hints caches each core's last two page lookups. One way covers a
	// core streaming within a page; the second covers the other common
	// shape, a loop alternating between two regions (two arrays, or an
	// array and a shared accumulator), which would thrash a single-entry
	// hint on every access.
	hints []pageHint
	// spill holds, per page, the sharer words of cores 64 and up:
	// spillWords words per line, in line order. A hot entry's inline word
	// covers cores 0-63, so spill stays nil on machines of up to 64 cores.
	spill      map[uint64][]uint64
	spillWords int
}

// pageHint is a two-way page cache: way 0 is the most recent miss fill,
// hits are served in place, a miss shifts way 0 into way 1.
type pageHint struct {
	pg [2]uint64
	p  [2]*dirPage
}

func newDirTable(cores int) *dirTable {
	t := &dirTable{
		pages: make(map[uint64]*dirPage),
		hints: make([]pageHint, cores),
	}
	for i := range t.hints {
		t.hints[i].pg[0] = ^uint64(0)
		t.hints[i].pg[1] = ^uint64(0)
	}
	if cores > 64 {
		t.spill = make(map[uint64][]uint64)
		t.spillWords = (cores - 64 + 63) / 64
	}
	return t
}

func (t *dirTable) newPage(pg uint64) *dirPage {
	if t.spill != nil {
		t.spill[pg] = make([]uint64, dirPageLines*t.spillWords)
	}
	return &dirPage{}
}

// entry returns the hot and cold state for line, creating its page on
// first use. core selects the per-core page hint; it is a locality key
// only and has no semantic effect. Returned pointers stay valid for the
// table's lifetime.
func (t *dirTable) entry(line uint64, core int) (*dirHot, *dirCold) {
	pg := line >> dirPageShift
	h := &t.hints[core]
	var p *dirPage
	switch pg {
	case h.pg[0]:
		p = h.p[0]
	case h.pg[1]:
		p = h.p[1]
	default:
		p = t.pages[pg]
		if p == nil {
			p = t.newPage(pg)
			t.pages[pg] = p
		}
		h.pg[1], h.p[1] = h.pg[0], h.p[0]
		h.pg[0], h.p[0] = pg, p
	}
	i := int(line) & (dirPageLines - 1)
	if w, b := i>>6, uint64(1)<<uint(i&63); p.touched[w]&b == 0 {
		p.touched[w] |= b
		t.used++
	}
	return &p.hot[i], &p.cold[i]
}

// find returns the state for line, or nils if the line was never touched.
func (t *dirTable) find(line uint64) (*dirHot, *dirCold) {
	p := t.pages[line>>dirPageShift]
	if p == nil {
		return nil, nil
	}
	i := int(line) & (dirPageLines - 1)
	if p.touched[i>>6]&(1<<uint(i&63)) == 0 {
		return nil, nil
	}
	return &p.hot[i], &p.cold[i]
}

// forEach visits every touched line with its state, in increasing line
// order — page keys are sorted so the walk is deterministic regardless
// of map iteration order. It runs once per simulation teardown, so the
// sort is off the access path.
func (t *dirTable) forEach(fn func(line uint64, h *dirHot, c *dirCold)) {
	keys := make([]uint64, 0, len(t.pages))
	for pg := range t.pages {
		keys = append(keys, pg)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, pg := range keys {
		p := t.pages[pg]
		base := pg << dirPageShift
		for w, bits := range p.touched {
			for bits != 0 {
				i := w*64 + trailingZeros(bits)
				bits &= bits - 1
				fn(base+uint64(i), &p.hot[i], &p.cold[i])
			}
		}
	}
}

// sharers returns line's sharer set: the inline word of its hot entry h,
// plus its words in the spill table on machines of more than 64 cores.
func (t *dirTable) sharers(line uint64, h *dirHot) sharerSet {
	b := sharerSet{lo: &h.sharers}
	if t.spill != nil {
		i := (int(line) & (dirPageLines - 1)) * t.spillWords
		b.rest = t.spill[line>>dirPageShift][i : i+t.spillWords : i+t.spillWords]
	}
	return b
}

// sharerSet is a set of core indices: lo is the word for cores 0-63 and
// rest holds the words for the cores above. A directory line's set is a
// view of its hot entry's inline word and its spill-table words, so a
// machine of up to 64 cores needs no storage beyond the hot entry.
type sharerSet struct {
	lo   *uint64
	rest []uint64
}

// newSharerSet returns an empty free-standing set for the given number of
// cores.
func newSharerSet(cores int) sharerSet {
	b := sharerSet{lo: new(uint64)}
	if cores > 64 {
		b.rest = make([]uint64, (cores-64+63)/64)
	}
	return b
}

func (b sharerSet) set(i int) {
	if i < 64 {
		*b.lo |= 1 << uint(i)
		return
	}
	i -= 64
	b.rest[i>>6] |= 1 << uint(i&63)
}

func (b sharerSet) unset(i int) {
	if i < 64 {
		*b.lo &^= 1 << uint(i)
		return
	}
	i -= 64
	b.rest[i>>6] &^= 1 << uint(i&63)
}

func (b sharerSet) get(i int) bool {
	if i < 64 {
		return *b.lo&(1<<uint(i)) != 0
	}
	i -= 64
	return b.rest[i>>6]&(1<<uint(i&63)) != 0
}

func (b sharerSet) clear() {
	*b.lo = 0
	for i := range b.rest {
		b.rest[i] = 0
	}
}

func (b sharerSet) count() int {
	n := popcount(*b.lo)
	for _, w := range b.rest {
		n += popcount(w)
	}
	return n
}

// countExcept returns the number of set bits other than i.
func (b sharerSet) countExcept(i int) int {
	n := b.count()
	if b.get(i) {
		n--
	}
	return n
}

// forEach calls fn for every set bit, in increasing order.
func (b sharerSet) forEach(fn func(int)) {
	w := *b.lo
	for w != 0 {
		fn(trailingZeros(w))
		w &= w - 1
	}
	for wi, w := range b.rest {
		for w != 0 {
			fn(64 + wi*64 + trailingZeros(w))
			w &= w - 1
		}
	}
}
