package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestHoldBoundsPingPongRate(t *testing.T) {
	// Two cores hammering one line: total cost over N round-trips is
	// bounded by roughly N x (hold + remote), NOT N x per-access misses —
	// the batching that keeps Figure 1 at ~13x rather than ~100x.
	s := newTestSim(2)
	a := mem.Addr(0x1000)
	const rounds = 400
	var total uint64
	for i := 0; i < rounds; i++ {
		total += uint64(s.Access(i%2, a, true))
	}
	perRound := float64(total) / rounds
	ceiling := float64(s.cfg.Lat.Hold+s.cfg.Lat.Remote) * 1.2
	if perRound > ceiling {
		t.Errorf("ping-pong per-access cost %.0f exceeds hold+remote ceiling %.0f", perRound, ceiling)
	}
}

func TestOwnerBatchesDuringInFlightSteal(t *testing.T) {
	// While core 1's steal is in flight (its completion time is in the
	// future), core 0 — the current owner — keeps hitting L1.
	s := New(DefaultConfig(2))
	a := mem.Addr(0x2000)
	now := uint64(0)
	lat := s.Access(0, a, true, now) // cold fill, core 0 owns
	now += uint64(lat)
	steal := s.Access(1, a, true, now) // in flight until now+steal
	if steal <= s.cfg.Lat.L1Hit {
		t.Fatalf("steal latency %d suspiciously low", steal)
	}
	// Owner accesses before the steal commits: cheap.
	for i := 0; i < 5; i++ {
		now += 10
		if lat := s.Access(0, a, true, now); lat != s.cfg.Lat.L1Hit {
			t.Fatalf("owner access %d during in-flight steal cost %d, want L1 hit", i, lat)
		}
	}
}

func TestPendingTransfersCommitInOrder(t *testing.T) {
	// Three cores queue steals on one line; each becomes owner in request
	// order, verified by L1 hits after their respective completion times.
	s := New(DefaultConfig(4))
	a := mem.Addr(0x3000)
	now := uint64(0)
	now += uint64(s.Access(0, a, true, now))
	l1 := uint64(s.Access(1, a, true, now))
	l2 := uint64(s.Access(2, a, true, now+1))
	if l2 <= l1 {
		t.Errorf("second queued steal latency %d not after first %d", l2, l1)
	}
	// After core 1's transfer completes (but before core 2's), core 1
	// owns the line.
	mid := now + l1 + 1
	if lat := s.Access(1, a, true, mid); lat != s.cfg.Lat.L1Hit {
		t.Errorf("first stealer not owner at its completion time: lat %d", lat)
	}
}

func TestSequentialPrefetcher(t *testing.T) {
	s := New(DefaultConfig(2))
	now := uint64(0)
	// First miss: full memory latency.
	if lat := s.Access(0, 0x10000, false, now); lat != s.cfg.Lat.Memory {
		t.Fatalf("first stream miss = %d, want memory %d", lat, s.cfg.Lat.Memory)
	}
	// Sequential misses: prefetched, L3 latency.
	for i := 1; i < 10; i++ {
		now += 300
		lat := s.Access(0, mem.Addr(0x10000+i*mem.LineSize), false, now)
		if lat != s.cfg.Lat.L3Hit {
			t.Errorf("stream miss %d = %d, want prefetched L3 %d", i, lat, s.cfg.Lat.L3Hit)
		}
	}
	// A random jump pays full memory latency again.
	now += 300
	if lat := s.Access(0, 0x900000, false, now); lat != s.cfg.Lat.Memory {
		t.Errorf("random miss = %d, want memory %d", lat, s.cfg.Lat.Memory)
	}
	if s.Stats().Prefetched != 9 {
		t.Errorf("Prefetched = %d, want 9", s.Stats().Prefetched)
	}
}

func TestPrefetcherIsPerCore(t *testing.T) {
	// Core 1's stream does not warm core 0's prefetcher state.
	s := New(DefaultConfig(2))
	s.Access(1, 0x20000, false, 0)
	s.Access(1, 0x20000+64, false, 300)
	// Core 0 misses on the next line of core 1's stream in a DIFFERENT
	// un-prefetched region: full memory cost (not L3: line not in L3 yet).
	if lat := s.Access(0, 0x40000, false, 600); lat != s.cfg.Lat.Memory {
		t.Errorf("core 0 cold miss = %d, want memory", lat)
	}
}

func TestLatencyNeverZeroProperty(t *testing.T) {
	// Any access sequence yields positive, bounded latency, and the
	// ground-truth invalidation count never exceeds total writes.
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(DefaultConfig(4))
		now := uint64(0)
		writes := uint64(0)
		steps := int(n%300) + 10
		for i := 0; i < steps; i++ {
			core := rng.Intn(4)
			addr := mem.Addr(rng.Intn(32) * 16)
			write := rng.Intn(2) == 0
			if write {
				writes++
			}
			lat := s.Access(core, addr, write, now)
			if lat == 0 || lat > 10_000_000 {
				return false
			}
			now += uint64(lat)
		}
		var inv uint64
		for _, v := range s.TotalLineInvalidations() {
			inv += v
		}
		return inv <= writes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUpgradeStartsHoldTenure(t *testing.T) {
	// A shared->modified upgrade also grants a hold: an immediate steal
	// by another core waits.
	s := New(DefaultConfig(3))
	a := mem.Addr(0x5000)
	now := uint64(0)
	s.Access(0, a, false, now) // shared in core 0
	now += 300
	s.Access(1, a, false, now) // shared in core 1
	now += 300
	up := s.Access(0, a, true, now) // upgrade: invalidates core 1
	now += uint64(up)
	steal := s.Access(2, a, true, now)
	if steal <= s.cfg.Lat.Remote {
		t.Errorf("steal right after upgrade = %d, want hold wait above remote %d",
			steal, s.cfg.Lat.Remote)
	}
}

func TestStatsCyclesMatchReturnedLatencies(t *testing.T) {
	f := func(ops []uint16) bool {
		s := newTestSim(4)
		var sum uint64
		for _, o := range ops {
			lat := s.Access(int(o%4), mem.Addr(o%128)*8, o%3 == 0)
			sum += uint64(lat)
		}
		return s.Stats().Cycles == sum && s.Stats().Accesses == uint64(len(ops))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContendedTransferQueuesStayBounded(t *testing.T) {
	// Eight cores store to two lines in min-clock order, so each line
	// always has a transfer in flight and its queue never fully drains.
	// Consumed slots must still be reclaimed: a queue's backing array is
	// bounded by the few transfers pending at once, not by run length.
	const cores, accesses, maxCap = 8, 2_000_000, 64
	s := New(DefaultConfig(cores))
	var clock [cores]uint64
	for i := 0; i < accesses; i++ {
		c := 0
		for k := 1; k < cores; k++ {
			if clock[k] < clock[c] {
				c = k
			}
		}
		clock[c] += uint64(s.Access(c, mem.Addr(0x8000+(c%2)*mem.LineSize), true, clock[c]))
	}
	for i, q := range s.queues {
		if cap(q.items) > maxCap {
			t.Errorf("transfer queue %d holds a backing array of %d entries after %d accesses, want <= %d",
				i, cap(q.items), accesses, maxCap)
		}
	}
}
