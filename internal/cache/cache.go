// Package cache implements a directory-based MESI cache-coherence
// simulator for a multicore machine with per-core private caches and a
// shared last-level cache.
//
// The simulator plays the role of the paper's experimental hardware (a
// 48-core AMD Opteron with private L1/L2 and a shared L3): it turns each
// memory access into a latency in cycles and maintains the ground-truth
// count of coherence invalidations per cache line. False sharing manifests
// here exactly as it does on real hardware — writes to a line cached by
// other cores invalidate their copies, so the next access by those cores
// pays a remote cache-to-cache transfer instead of a private-cache hit.
//
// The latency channel is what the PMU simulator exposes to Cheetah
// (paper Observation 2: "the latency of memory accesses with false sharing
// are significantly higher than that of other accesses").
//
// Every experiment in the reproduction spends most of its cycles inside
// Access, and every run builds a fresh simulator, so both the access path
// and the simulator's footprint are kept small. The directory is a paged
// table indexed by line number (dir.go) rather than a Go map, and its
// pages hold no pointers: the per-line entry keeps the MESI state, the
// sharers of cores 0-63, the invalidation and contention counts, and the
// slot of its in-flight transfer queue. The queues themselves live in a
// per-simulator table while transfers are in flight, and sharers above
// core 63 in a spill table that exists only on machines of more than 64
// cores. The private and shared caches store only line keys, in recency
// order (setassoc.go). The steady state of an access allocates nothing.
package cache

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Latencies configures the cost model in cycles; it is the machine
// package's latency table, re-exported so cache-sim call sites keep
// reading naturally.
type Latencies = machine.Latencies

// DefaultLatencies returns the calibrated cost model used throughout the
// reproduction.
func DefaultLatencies() Latencies { return machine.DefaultLatencies() }

// Config sizes the simulated machine. Cache sizes are given in lines per
// set-associative structure.
type Config struct {
	// Cores is the number of cores; each simulated thread is bound to a
	// core (paper Assumption 1: one thread per core, private caches).
	Cores int
	// L1Sets and L1Ways size each private L1 (default 64 KB: 128 sets x 8
	// ways x 64 B).
	L1Sets, L1Ways int
	// L2Sets and L2Ways size each private L2 (default 512 KB).
	L2Sets, L2Ways int
	// L3Sets and L3Ways size the shared L3 (default 10 MB).
	L3Sets, L3Ways int
	// Lat is the latency model.
	Lat Latencies
	// Geom is the cache-line geometry; the zero value means the canonical
	// 64-byte lines.
	Geom mem.Geometry
	// CoresPerSocket splits the cores across sockets for cross-socket
	// transfer pricing; zero (or >= Cores) means a single socket.
	CoresPerSocket int
	// CrossSocketMult scales Lat.Remote for dirty-line transfers whose
	// requester and owner sit on different sockets; 0 or 1 disables the
	// scaling.
	CrossSocketMult float64
	// Protocol selects the coherence-protocol variant (MESI default).
	Protocol machine.Protocol
}

// DefaultConfig returns a machine resembling the paper's evaluation
// platform, with the requested number of cores.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:  cores,
		L1Sets: 128, L1Ways: 8, // 64 KB private L1
		L2Sets: 1024, L2Ways: 8, // 512 KB private L2
		L3Sets: 10240, L3Ways: 16, // 10 MB shared L3
		Lat: DefaultLatencies(),
	}
}

// ConfigFor derives the cache configuration from a machine model: core
// count, latency table, line geometry, topology, and protocol. For the
// canonical default model it behaves exactly like DefaultConfig(48).
func ConfigFor(m machine.Model) Config {
	cfg := DefaultConfig(m.Cores())
	cfg.Lat = m.Lat
	cfg.Geom = m.Geometry()
	if m.Sockets > 1 {
		cfg.CoresPerSocket = m.CoresPerSocket
		cfg.CrossSocketMult = m.CrossSocketMult
	}
	cfg.Protocol = m.Protocol
	return cfg
}

// lineState is the directory-visible MESI state of a cache line.
type lineState uint8

const (
	invalid  lineState = iota
	shared             // one or more clean copies
	modified           // exactly one dirty copy (covers Exclusive: silent E->M)
)

func (s lineState) String() string {
	switch s {
	case shared:
		return "shared"
	case modified:
		return "modified"
	default:
		return "invalid"
	}
}

// dirHot is the per-line state every access reads: which cores hold a
// copy and in what state, when ownership can next transfer, and whether
// transfers are in flight. It lives in the directory page's hot array
// (dir.go); everything only coherence events touch is banished to dirCold
// so the hot slots pack tight.
type dirHot struct {
	// sharers is the inline word of the line's sharer set (cores 0-63);
	// dirTable.sharers adds the spilled words of larger machines.
	sharers uint64
	// availableAt is the earliest time the line's ownership can next be
	// transferred; steals arriving earlier stall (Hold semantics).
	availableAt uint64
	owner       int32 // valid when state == modified
	state       lineState
	// pend mirrors "the cold entry's queue is set", so the access fast
	// path never touches the cold array.
	pend bool
}

// dirCold is the per-line state only coherence events and report
// generation touch, kept out of the access fast path's cache lines.
type dirCold struct {
	// invals is the ground-truth count of invalidation events on the line.
	invals uint64
	// contention is the number of in-window contention-tracker events on
	// the line (maintained by noteContention/evictContention).
	contention int32
	// queue is 1 + the index in Sim.queues of the line's in-flight
	// transfers while it has any, and 0 otherwise.
	queue int32
}

// transferQueue holds one line's in-flight transfers in completion-time
// order: a steal is granted at its effective time, and until then the
// current owner keeps servicing its own accesses from L1. This is what
// bounds the false-sharing ping-pong rate on real machines: owners batch
// cheap accesses while a remote request is in flight. The queue pops by
// advancing head; a drained queue is recycled, backing array and all, for
// the next line, so the steady state allocates nothing.
type transferQueue struct {
	items []pendingTransfer
	head  int
}

// pendingTransfer is one in-flight ownership change.
type pendingTransfer struct {
	core int32
	// read marks a downgrade-to-shared (remote read of a dirty line)
	// rather than an ownership steal.
	read bool
	// effectiveAt is the transfer's completion time.
	effectiveAt uint64
}

// Stats aggregates machine-wide counters.
type Stats struct {
	// Accesses is the total number of loads and stores processed.
	Accesses uint64
	// Cycles is the total latency of all accesses.
	Cycles uint64
	// Invalidations is the total number of coherence invalidation events
	// (each event invalidates all remote copies of one line once).
	Invalidations uint64
	// RemoteTransfers counts cache-to-cache dirty-line transfers.
	RemoteTransfers uint64
	// Forwards counts clean shared-line cache-to-cache transfers under
	// MESIF (always zero under MESI).
	Forwards uint64
	// L1Hits, L2Hits, L3Hits and MemoryAccesses break down where accesses
	// were satisfied.
	L1Hits, L2Hits, L3Hits, MemoryAccesses uint64
	// Prefetched counts LLC misses served early by the sequential
	// prefetcher.
	Prefetched uint64
}

// Sim is the coherence simulator. It is not safe for concurrent use; the
// execution engine serializes accesses in virtual-time order. Concurrent
// experiments each run their own Sim.
type Sim struct {
	cfg Config
	// l1 and l2 are per-core private caches; l3 is shared.
	l1, l2 []*setAssoc
	l3     *setAssoc
	dir    *dirTable
	stats  Stats
	// queues holds the transfer queues of the lines with transfers in
	// flight, each indexed from its line's dirCold.queue; freeQueues lists
	// the drained slots. Few lines have transfers in flight at once, so
	// the queues stay out of the directory pages and pages hold no
	// pointers.
	queues     []transferQueue
	freeQueues []int32
	// contention tracks cores active in recent coherence events for the
	// interconnect-queueing latency term.
	contention contentionTracker
	// lastMiss tracks each core's last LLC-missed line for the sequential
	// hardware prefetcher: a miss on the line following a core's previous
	// miss is served at L3 latency (the prefetcher already fetched it),
	// as on real machines where streaming loads and stores do not pay
	// full memory latency.
	lastMiss []uint64
	// hints caches each core's last two directory lookups: accesses are
	// bursty per line (sixteen 4-byte words per streamed line), and many
	// bodies alternate between two lines (streamed data plus a private
	// accumulator), which would thrash a single-entry hint. hintGen
	// guards against slot movement: a directory grow bumps dir.gen,
	// voiding every hint.
	hints   []dirHint
	hintGen uint64
	// lineShift is the configured geometry's log2(line size); addresses
	// map to directory lines through it.
	lineShift uint
	// coresPerSocket is nonzero when the topology has more than one
	// socket and cross-socket transfers price differently; remoteCross is
	// the pre-scaled Remote latency for those transfers.
	coresPerSocket int
	remoteCross    uint32
	// mesif enables Forward-state shared-line forwarding.
	mesif bool
}

// dirHint is one core's two most recent directory lookups. A miss
// shifts way 0 into way 1 and installs the new line at way 0; a hit in
// either way is served in place (no promotion), so a strict two-line
// alternation settles with each line in its own way and zero traffic.
type dirHint struct {
	line [2]uint64
	hot  [2]*dirHot
	cold [2]*dirCold
}

// contentionTracker measures the machine-wide rate of coherence traffic:
// it keeps recent coherence events (timestamp and cache line) in a ring
// buffer and, for a new event, reports how many in-window events concern
// *other* lines. The latency term derived from it models interconnect
// queueing between concurrent line transfers: same-line serialization is
// already captured by the hold/pending mechanism, so a single ping-pong
// pair pays no queueing, while a program whose threads ping-pong many
// distinct lines sees every transfer slow down.
//
// The per-line in-window counts live in the directory entries themselves
// (dirCold.contention), so tracking an event costs two ring operations
// and no map traffic.
type contentionTracker struct {
	window uint64
	cap    int
	// events is a power-of-two ring buffer of in-window events.
	events []contentionEvent
	head   int
	size   int
}

type contentionEvent struct {
	time uint64
	line uint64
}

func newContentionTracker(window uint64, cap int) contentionTracker {
	if cap <= 0 {
		cap = 256
	}
	return contentionTracker{window: window, cap: cap}
}

// push appends an event, growing the ring when full.
func (c *contentionTracker) push(ev contentionEvent) {
	if c.size == len(c.events) {
		n := len(c.events) * 2
		if n == 0 {
			n = 64
		}
		grown := make([]contentionEvent, n)
		for i := 0; i < c.size; i++ {
			grown[i] = c.events[(c.head+i)&(len(c.events)-1)]
		}
		c.events = grown
		c.head = 0
	}
	c.events[(c.head+c.size)&(len(c.events)-1)] = ev
	c.size++
}

// evictContention drops events older than the window ending at now,
// decrementing the per-line counts they contributed.
func (s *Sim) evictContention(now uint64) {
	c := &s.contention
	cutoff := uint64(0)
	if now > c.window {
		cutoff = now - c.window
	}
	for c.size > 0 {
		ev := c.events[c.head&(len(c.events)-1)]
		if ev.time >= cutoff {
			break
		}
		c.head = (c.head + 1) & (len(c.events) - 1)
		c.size--
		if _, cold := s.dir.find(ev.line); cold != nil {
			cold.contention--
		}
	}
}

// noteContention records a coherence event on the line at time now and
// returns the extra latency due to in-flight transfers of other lines.
func (s *Sim) noteContention(now uint64, line uint64, cold *dirCold) uint32 {
	c := &s.contention
	if c.window == 0 {
		return 0
	}
	s.evictContention(now)
	others := c.size - int(cold.contention)
	c.push(contentionEvent{time: now, line: line})
	cold.contention++
	if others > c.cap {
		others = c.cap
	}
	return s.cfg.Lat.ContentionPenalty * uint32(others)
}

// New creates a simulator for the given configuration.
func New(cfg Config) *Sim {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("cache: invalid core count %d", cfg.Cores))
	}
	s := &Sim{
		cfg:        cfg,
		l1:         make([]*setAssoc, cfg.Cores),
		l2:         make([]*setAssoc, cfg.Cores),
		l3:         newSetAssoc(cfg.L3Sets, cfg.L3Ways),
		dir:        newDirTable(cfg.Cores),
		contention: newContentionTracker(cfg.Lat.ContentionWindow, cfg.Lat.ContentionCap),
	}
	// Private caches are allocated on a core's first access: workloads
	// rarely touch all cores of the 48-core machine, and zeroing every
	// core's arrays would dominate the setup cost of the small simulators
	// experiment cells build in bulk.
	s.lastMiss = make([]uint64, cfg.Cores)
	for i := range s.lastMiss {
		s.lastMiss[i] = ^uint64(0)
	}
	s.hints = make([]dirHint, cfg.Cores)
	for i := range s.hints {
		s.hints[i].line = [2]uint64{^uint64(0), ^uint64(0)}
	}
	s.lineShift = cfg.Geom.OrDefault().LineShift
	if cfg.CoresPerSocket > 0 && cfg.CoresPerSocket < cfg.Cores {
		s.coresPerSocket = cfg.CoresPerSocket
		mult := cfg.CrossSocketMult
		if mult <= 0 {
			mult = 1
		}
		s.remoteCross = uint32(math.Round(float64(cfg.Lat.Remote) * mult))
	}
	s.mesif = cfg.Protocol == machine.MESIF
	return s
}

// Cores returns the number of simulated cores.
func (s *Sim) Cores() int { return s.cfg.Cores }

// DirLines returns the number of live directory entries — distinct cache
// lines the simulated program has touched. An occupancy probe for
// observability; O(shards), no allocation.
func (s *Sim) DirLines() int { return s.dir.used }

// Stats returns a copy of the aggregate counters.
func (s *Sim) Stats() Stats { return s.stats }

// LineInvalidations returns the ground-truth number of invalidation events
// observed on the cache line containing addr.
func (s *Sim) LineInvalidations(addr mem.Addr) uint64 {
	if _, cold := s.dir.find(uint64(addr) >> s.lineShift); cold != nil {
		return cold.invals
	}
	return 0
}

// TotalLineInvalidations returns the per-line invalidation table as a
// fresh snapshot (lines with zero invalidations are omitted). Building
// the snapshot walks the directory, so callers should hold on to the
// result rather than call in a loop.
func (s *Sim) TotalLineInvalidations() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	s.dir.forEach(func(line uint64, h *dirHot, c *dirCold) {
		if c.invals > 0 {
			out[line] = c.invals
		}
	})
	return out
}

// Access simulates one memory access by the given core at virtual time
// now (cycles) and returns its latency in cycles. Write upgrades and dirty
// remote copies trigger invalidations, recorded in the per-line ground
// truth. Callers must present accesses in non-decreasing now order, which
// the virtual-time engine guarantees.
func (s *Sim) Access(core int, addr mem.Addr, write bool, now uint64) uint32 {
	if core < 0 || core >= s.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range [0,%d)", core, s.cfg.Cores))
	}
	if s.l1[core] == nil {
		s.l1[core] = newSetAssoc(s.cfg.L1Sets, s.cfg.L1Ways)
		s.l2[core] = newSetAssoc(s.cfg.L2Sets, s.cfg.L2Ways)
	}
	line := uint64(addr) >> s.lineShift
	var h *dirHot
	var c *dirCold
	hint := &s.hints[core]
	if s.hintGen == s.dir.gen {
		if hint.line[0] == line {
			h, c = hint.hot[0], hint.cold[0]
		} else if hint.line[1] == line {
			h, c = hint.hot[1], hint.cold[1]
		}
	}
	if h == nil {
		h, c = s.dir.entry(line, core)
		if s.hintGen != s.dir.gen {
			// A grow moved slots; every cached pointer is void.
			for i := range s.hints {
				s.hints[i] = dirHint{line: [2]uint64{^uint64(0), ^uint64(0)}}
			}
			s.hintGen = s.dir.gen
		}
		hint.line[1], hint.hot[1], hint.cold[1] = hint.line[0], hint.hot[0], hint.cold[0]
		hint.line[0], hint.hot[0], hint.cold[0] = line, h, c
	}
	if h.pend {
		s.commitPending(h, c, line, now)
	}

	// Fast path for the private-satisfiable cases that dominate every
	// workload: the dirty owner re-accessing its line, or a sharer
	// re-reading a clean one. Exactly mirrors the corresponding read/write
	// branches below, minus their switch and call overhead.
	priv := false
	if h.state == modified {
		priv = int(h.owner) == core
	} else if h.state == shared && !write {
		// Cores above 63 are in the directory's spill table.
		if core < 64 {
			priv = h.sharers&(1<<uint(core)) != 0
		} else {
			priv = s.dir.sharers(line, h).get(core)
		}
	}
	if priv {
		var lat uint32
		// First-way probe inlined: way 0 holds the set's most recent line,
		// so a bursty re-access matches here and leaves the set as it is.
		l1 := s.l1[core]
		if l1.keys[l1.setFor(line)*l1.ways] == line+1 {
			s.stats.L1Hits++
			lat = s.cfg.Lat.L1Hit
		} else if l1.touch(line) {
			s.stats.L1Hits++
			lat = s.cfg.Lat.L1Hit
		} else {
			lat = s.privateFill(core, line)
		}
		s.stats.Accesses++
		s.stats.Cycles += uint64(lat)
		return lat
	}

	var lat uint32
	if write {
		lat = s.write(core, line, h, c, now)
	} else {
		lat = s.read(core, line, h, c, now)
	}
	s.stats.Accesses++
	s.stats.Cycles += uint64(lat)
	return lat
}

// read services a load. The L1 probe is deferred into the branches that
// can actually hold a private copy: coherence invariantly evicts a line
// from a core's private caches whenever the core leaves the sharer set
// or loses ownership, so probing L1 on the remote/invalid paths is a
// guaranteed miss — pure wasted walk on the hottest ping-pong branches.
func (s *Sim) read(core int, line uint64, e *dirHot, c *dirCold, now uint64) uint32 {
	switch e.state {
	case modified:
		if int(e.owner) == core {
			// Local dirty copy.
			if s.l1[core].touch(line) {
				s.stats.L1Hits++
				return s.cfg.Lat.L1Hit
			}
			return s.privateFill(core, line)
		}
		// Dirty in a remote private cache: request a downgrade-to-shared
		// transfer. It completes after the owner's hold expires; until
		// then the owner keeps servicing its own accesses from L1.
		s.stats.RemoteTransfers++
		return s.enqueueTransfer(e, c, line, core, true, now)
	case shared:
		sharers := s.dir.sharers(line, e)
		if sharers.get(core) {
			if s.l1[core].touch(line) {
				s.stats.L1Hits++
				return s.cfg.Lat.L1Hit
			}
			return s.privateFill(core, line)
		}
		// Another core shares it cleanly. Under MESIF the Forward-state
		// holder serves the miss cache-to-cache at the Forward latency;
		// under MESI the line comes from the L3 (or memory on LLC miss).
		sharers.set(core)
		s.fill(core, line)
		if s.mesif {
			s.stats.Forwards++
			return s.cfg.Lat.Forward
		}
		return s.llcFetch(core, line)
	default: // invalid: no cached copies anywhere
		e.state = shared
		s.dir.sharers(line, e).set(core)
		s.fill(core, line)
		return s.llcFetch(core, line)
	}
}

// write services a store. The L1 probe is deferred exactly as in read.
func (s *Sim) write(core int, line uint64, e *dirHot, c *dirCold, now uint64) uint32 {
	switch e.state {
	case modified:
		if int(e.owner) == core {
			if s.l1[core].touch(line) {
				s.stats.L1Hits++
				return s.cfg.Lat.L1Hit
			}
			return s.privateFill(core, line)
		}
		// Dirty elsewhere: request an ownership steal — the classic
		// false-sharing ping-pong step. The steal is granted only after
		// the current owner's hold expires and earlier in-flight
		// transfers complete.
		s.recordInvalidation(c, 1)
		s.stats.RemoteTransfers++
		return s.enqueueTransfer(e, c, line, core, false, now)
	case shared:
		sharers := s.dir.sharers(line, e)
		others := sharers.countExcept(core)
		holds := sharers.get(core)
		if others > 0 {
			// Upgrade: invalidate every other sharer.
			s.recordInvalidation(c, others)
			sharers.forEach(func(c int) {
				if c != core {
					s.evictRemote(c, line)
				}
			})
			e.state = modified
			e.owner = int32(core)
			sharers.clear()
			sharers.set(core)
			s.fill(core, line)
			lat := s.cfg.Lat.Upgrade + uint32(others-1)*s.cfg.Lat.PerSharer +
				s.noteContention(now, line, c)
			e.availableAt = now + uint64(lat) + uint64(s.cfg.Lat.Hold)
			return lat
		}
		// Sole sharer: silent upgrade (Exclusive -> Modified).
		e.state = modified
		e.owner = int32(core)
		if holds {
			if s.l1[core].touch(line) {
				s.stats.L1Hits++
				return s.cfg.Lat.L1Hit
			}
			return s.privateFill(core, line)
		}
		sharers.set(core)
		s.fill(core, line)
		return s.llcFetch(core, line)
	default: // invalid
		e.state = modified
		e.owner = int32(core)
		s.dir.sharers(line, e).set(core)
		s.fill(core, line)
		return s.llcFetch(core, line)
	}
}

// recordInvalidation logs n remote-copy invalidations of the line as a
// single coherence event for ground-truth purposes (one event per
// invalidating write, matching the detector's counting rule).
func (s *Sim) recordInvalidation(c *dirCold, n int) {
	if n <= 0 {
		return
	}
	s.stats.Invalidations++
	c.invals++
}

// evictRemote removes a line from another core's private caches.
func (s *Sim) evictRemote(core int, line uint64) {
	s.l1[core].remove(line)
	s.l2[core].remove(line)
}

// fill installs a line into core's private L1 and L2.
func (s *Sim) fill(core int, line uint64) {
	s.l1[core].insert(line)
	s.l2[core].insert(line)
}

// privateFill services an L1 miss that hits the private L2.
func (s *Sim) privateFill(core int, line uint64) uint32 {
	if s.l2[core].touch(line) {
		s.l1[core].insert(line)
		s.stats.L2Hits++
		return s.cfg.Lat.L2Hit
	}
	// Not in L2 either (capacity eviction): refetch from the LLC.
	s.fill(core, line)
	return s.llcFetch(core, line)
}

// llcFetch returns the latency of fetching a line from the shared L3,
// falling back to memory on an LLC miss, and installs it in the L3. A
// miss on the line sequentially following core's previous miss is served
// at L3 latency: the stride prefetcher already has it in flight.
func (s *Sim) llcFetch(core int, line uint64) uint32 {
	if s.l3.touch(line) {
		s.stats.L3Hits++
		return s.cfg.Lat.L3Hit
	}
	s.l3.insert(line)
	s.stats.MemoryAccesses++
	sequential := line == s.lastMiss[core]+1
	s.lastMiss[core] = line
	if sequential {
		s.stats.Prefetched++
		return s.cfg.Lat.L3Hit
	}
	return s.cfg.Lat.Memory
}

// enqueueTransfer requests a line transfer (steal or downgrade) by core
// at time now and returns the requester's stall latency. The transfer
// starts when the current tenure and all earlier in-flight transfers have
// drained (availableAt), costs the cache-to-cache time plus the
// interconnect-queueing term, and takes effect at its completion time via
// the pending queue. The line becomes stealable again a full Hold after
// this transfer completes.
func (s *Sim) enqueueTransfer(e *dirHot, c *dirCold, line uint64, core int, read bool, now uint64) uint32 {
	start := now
	if e.availableAt > start {
		start = e.availableAt
	}
	// Transfers originate from the dirty owner (both call sites are in
	// modified state); one that crosses a socket boundary pays the scaled
	// interconnect-hop cost.
	remote := s.cfg.Lat.Remote
	if s.coresPerSocket > 0 && core/s.coresPerSocket != int(e.owner)/s.coresPerSocket {
		remote = s.remoteCross
	}
	end := start + uint64(remote) + uint64(s.noteContention(now, line, c))
	e.availableAt = end + uint64(s.cfg.Lat.Hold)
	if c.queue == 0 {
		if n := len(s.freeQueues); n > 0 {
			c.queue = s.freeQueues[n-1]
			s.freeQueues = s.freeQueues[:n-1]
		} else {
			s.queues = append(s.queues, transferQueue{})
			c.queue = int32(len(s.queues))
		}
	}
	q := &s.queues[c.queue-1]
	q.items = append(q.items, pendingTransfer{core: int32(core), read: read, effectiveAt: end})
	e.pend = true
	return uint32(end - now)
}

// commitPending applies every in-flight transfer that has completed by
// time now, in completion order. A drained queue returns to the free
// list, and the line's queue and pend flag clear.
func (s *Sim) commitPending(e *dirHot, c *dirCold, line uint64, now uint64) {
	q := &s.queues[c.queue-1]
	for q.head < len(q.items) && q.items[q.head].effectiveAt <= now {
		p := q.items[q.head]
		q.head++
		dst := int(p.core)
		sharers := s.dir.sharers(line, e)
		if p.read {
			// Downgrade: the previous owner keeps a clean shared copy,
			// the reader joins the sharer set, and the write-back leaves
			// a copy in the LLC.
			if e.state == modified {
				sharers.set(int(e.owner))
			}
			e.state = shared
			sharers.set(dst)
			s.fill(dst, line)
			s.l3.insert(line)
			continue
		}
		// Steal: every other copy is invalidated and the requester
		// becomes the dirty owner.
		if e.state == modified && int(e.owner) != dst {
			s.evictRemote(int(e.owner), line)
		}
		sharers.forEach(func(c int) {
			if c != dst {
				s.evictRemote(c, line)
			}
		})
		e.state = modified
		e.owner = p.core
		sharers.clear()
		sharers.set(dst)
		s.fill(dst, line)
	}
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
		s.freeQueues = append(s.freeQueues, c.queue)
		c.queue = 0
		e.pend = false
	}
}

// directoryState exposes a line's MESI state for tests.
func (s *Sim) directoryState(line uint64) (lineState, int, int) {
	e, _ := s.dir.find(line)
	if e == nil {
		return invalid, -1, 0
	}
	owner := -1
	if e.state == modified {
		owner = int(e.owner)
	}
	return e.state, owner, s.dir.sharers(line, e).count()
}
