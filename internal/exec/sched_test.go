package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// Scheduler is the run-queue contract the engine's batched loop relies
// on: a priority queue of runnable threads keyed by (vtime, id). The
// minimum thread stays in the queue while it runs; only Min's vtime may
// change between calls. sortedQueue is the engine's implementation and
// refSched the naive model TestSchedulerMatchesReference checks it
// against.
type Scheduler interface {
	// Push inserts a runnable thread keyed by its current (vtime, id).
	Push(th *thread)
	// Len reports how many threads are scheduled.
	Len() int
	// Min returns the thread with the smallest (vtime, id) key without
	// removing it.
	Min() *thread
	// NextVtime returns the vtime of the second-earliest thread, or
	// ^uint64(0) when Min is alone.
	NextVtime() uint64
	// NextKey returns the full (vtime, id) key of the second-earliest
	// thread, or (^uint64(0), maxThreadID) when Min is alone.
	NextKey() (uint64, mem.ThreadID)
	// FixMin restores order after Min's vtime has increased in place.
	FixMin()
	// PopMin removes and returns the earliest thread.
	PopMin() *thread
}

// NextVtime is the test-side view of the second-earliest key's vtime;
// the engine itself reads the full key through NextKey.
func (q *sortedQueue) NextVtime() uint64 {
	if q.size < 2 {
		return ^uint64(0)
	}
	return q.buf[q.idx(q.size-2)].vt
}

// TestSchedulerOrdering: the run queue pops in (vtime, id) order, ids
// breaking ties.
func TestSchedulerOrdering(t *testing.T) {
	vt := []uint64{50, 10, 30, 10, 90, 20, 10}
	t.Run("sorted", func(t *testing.T) {
		s := newSortedQueue(len(vt))
		for i, v := range vt {
			s.Push(&thread{id: mem.ThreadID(i), vtime: v})
		}
		var got []uint64
		var ids []mem.ThreadID
		for s.Len() > 0 {
			th := s.PopMin()
			got = append(got, th.vtime)
			ids = append(ids, th.id)
		}
		want := []uint64{10, 10, 10, 20, 30, 50, 90}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pop order %v, want %v", got, want)
		}
		// The three vtime-10 entries are threads 1, 3, 6 — id order.
		if ids[0] != 1 || ids[1] != 3 || ids[2] != 6 {
			t.Errorf("tie-break order = %v, want ids 1,3,6 first", ids[:3])
		}
	})
}

// TestSchedulerFarFuture pushes keys spread from 0 to 2^40, around and
// far past a 512-cycle horizon in 8-cycle steps: pops must still come
// out in ascending vtime order, Min agreeing with PopMin.
func TestSchedulerFarFuture(t *testing.T) {
	vts := []uint64{512, 1, 10 * 512, 512 - 1, 1 << 40,
		3 * 512, 0, 10*512 + 8, 1<<40 + 1, 512 + 1}
	t.Run("sorted", func(t *testing.T) {
		s := newSortedQueue(len(vts))
		for i, v := range vts {
			s.Push(&thread{id: mem.ThreadID(i), vtime: v})
		}
		var got []uint64
		for s.Len() > 0 {
			min := s.Min()
			popped := s.PopMin()
			if min != popped {
				t.Fatalf("Min returned thread %d, PopMin thread %d", min.id, popped.id)
			}
			got = append(got, popped.vtime)
		}
		want := []uint64{0, 1, 512 - 1, 512, 512 + 1,
			3 * 512, 10 * 512, 10*512 + 8, 1 << 40, 1<<40 + 1}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	})
}

// schedOp is one scripted operation for the model-check test.
type schedOp struct {
	// push a thread with vtime vt (id assigned sequentially), or, when
	// push is false, run the engine's Min/NextVtime/advance/FixMin-or-
	// PopMin cycle with the given advance delta (pop when pop is set).
	push bool
	vt   uint64
	adv  uint64
	pop  bool
}

// refSched is the naive reference Scheduler: a slice scanned linearly.
type refSched struct{ ths []*thread }

func (r *refSched) Push(th *thread) { r.ths = append(r.ths, th) }
func (r *refSched) Len() int        { return len(r.ths) }
func (r *refSched) minIndex() int {
	best := 0
	for i := 1; i < len(r.ths); i++ {
		a, b := r.ths[i], r.ths[best]
		if a.vtime < b.vtime || (a.vtime == b.vtime && a.id < b.id) {
			best = i
		}
	}
	return best
}
func (r *refSched) Min() *thread { return r.ths[r.minIndex()] }
func (r *refSched) NextVtime() uint64 {
	mi := r.minIndex()
	next := ^uint64(0)
	for i, th := range r.ths {
		if i != mi && th.vtime < next {
			next = th.vtime
		}
	}
	return next
}
func (r *refSched) NextKey() (uint64, mem.ThreadID) {
	mi := r.minIndex()
	vt, id := ^uint64(0), maxThreadID
	for i, th := range r.ths {
		if i != mi && (th.vtime < vt || (th.vtime == vt && th.id < id)) {
			vt, id = th.vtime, th.id
		}
	}
	return vt, id
}
func (r *refSched) FixMin() {}
func (r *refSched) PopMin() *thread {
	mi := r.minIndex()
	th := r.ths[mi]
	r.ths = append(r.ths[:mi], r.ths[mi+1:]...)
	return th
}

// modelCheckSeeds is the model check's size: at least 200 scripts in
// -short, at least 2000 in the full run.
func modelCheckSeeds() int64 {
	if testing.Short() {
		return 200
	}
	return 2000
}

// TestSchedulerMatchesReference model-checks the sorted run queue
// against the naive reference over seeded scripts of pushes, in-place
// advances (FixMin) and pops, comparing every Min, NextKey and pop. It
// is the queue's only direct oracle. Even seeds draw vtimes and advances
// from 0–4, zero included, so exact vtime ties dominate and only the id
// orders threads; odd seeds spread vtimes over 2048 cycles and advances
// over 1024, so threads overtake each other by long strides.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= modelCheckSeeds(); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ties := seed%2 == 0
			script := make([]schedOp, 0, 600)
			alive := 0
			for len(script) < cap(script) {
				r := rng.Intn(10)
				switch {
				case alive == 0 || r < 3:
					vt := uint64(rng.Intn(2048))
					if ties {
						vt = uint64(rng.Intn(5))
					}
					script = append(script, schedOp{push: true, vt: vt})
					alive++
				case r < 8:
					adv := 1 + uint64(rng.Intn(1024))
					if ties {
						adv = uint64(rng.Intn(5))
					}
					script = append(script, schedOp{adv: adv})
				default:
					script = append(script, schedOp{pop: true})
					alive--
				}
			}

			type trace struct {
				mins, nexts []uint64
				nextIDs     []mem.ThreadID
				pops        []mem.ThreadID
			}
			runScript := func(s Scheduler) trace {
				var tr trace
				nextID := mem.ThreadID(1)
				for _, op := range script {
					switch {
					case op.push:
						s.Push(&thread{id: nextID, vtime: op.vt})
						nextID++
					case op.pop:
						tr.pops = append(tr.pops, s.PopMin().id)
					default:
						th := s.Min()
						tr.mins = append(tr.mins, th.vtime)
						nvt, nid := s.NextKey()
						if nvt != s.NextVtime() {
							t.Fatalf("NextKey vt %d != NextVtime %d", nvt, s.NextVtime())
						}
						tr.nexts = append(tr.nexts, nvt)
						tr.nextIDs = append(tr.nextIDs, nid)
						th.vtime += op.adv
						s.FixMin()
					}
				}
				for s.Len() > 0 {
					tr.pops = append(tr.pops, s.PopMin().id)
				}
				return tr
			}

			want := runScript(&refSched{})
			if got := runScript(newSortedQueue(8)); !reflect.DeepEqual(got, want) {
				t.Fatalf("sorted queue diverges from reference:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// engineRun is one engine run's observable outcome.
type engineRun struct {
	res Result
	acc []mem.Access
}

// runLoops executes prog on the batched loop and on the per-op
// reference loop (Config.Unbatched), each on a fresh machine, and
// returns both runs.
func runLoops(cfg Config, mkMachine func() Machine, prog Program) (batched, unbatched engineRun) {
	run := func(unbatched bool) engineRun {
		c := cfg
		c.Unbatched = unbatched
		rec := &recorder{}
		res := New(mkMachine(), c, rec).Run(prog)
		return engineRun{res, rec.accesses}
	}
	return run(false), run(true)
}

// assertLoopsAgree fails unless the batched and unbatched runs produced
// the identical result and access stream.
func assertLoopsAgree(t *testing.T, batched, unbatched engineRun) {
	t.Helper()
	if !reflect.DeepEqual(batched.res, unbatched.res) {
		t.Errorf("batched result diverges from unbatched:\n%+v\nvs\n%+v", batched.res, unbatched.res)
	}
	if !reflect.DeepEqual(batched.acc, unbatched.acc) {
		t.Errorf("batched access stream diverges from unbatched (%d vs %d accesses)",
			len(batched.acc), len(unbatched.acc))
	}
}

// TestSingleThreadPhases: phases that never have a second runnable
// thread — a serial phase and a one-body parallel phase — must behave
// identically batched and unbatched (the NextKey == max sentinel path).
func TestSingleThreadPhases(t *testing.T) {
	prog := Program{
		Name: "single",
		Phases: []Phase{
			SerialPhase("s", func(tt *T) {
				tt.Compute(40)
				tt.Store(0x100)
				tt.Load(0x140)
			}),
			ParallelPhase("p1", func(tt *T) {
				tt.Store(0x180)
				tt.Compute(9)
			}),
		},
	}
	batched, unbatched := runLoops(Config{OpBuffer: 4, ThreadCreateCycles: 100, ThreadJoinCycles: 10},
		func() Machine { return &fixedMachine{cores: 4, latency: 7} }, prog)
	assertLoopsAgree(t, batched, unbatched)
	// Serial: 40 compute + 2 accesses * 7. Parallel: thread 0 of a phase
	// pays no creation stagger, so 7 + 9, plus one join.
	want := uint64(40 + 7 + 7 + 7 + 9 + 10)
	if got := batched.res.TotalCycles; got != want {
		t.Errorf("TotalCycles = %d, want %d", got, want)
	}
}

// TestZeroLatencyOps: a machine that answers every access in zero
// cycles keeps thread clocks frozen, so a running thread only yields
// when its body ends. Both engine loops must agree on that degenerate
// schedule (each thread's whole stream runs back-to-back, in id order).
func TestZeroLatencyOps(t *testing.T) {
	body := func(base mem.Addr) Body {
		return func(tt *T) {
			for i := 0; i < 10; i++ {
				tt.Store(base + mem.Addr(4*i))
			}
		}
	}
	prog := Program{
		Name:   "zerolat",
		Phases: []Phase{ParallelPhase("p", body(0x1000), body(0x2000), body(0x3000))},
	}
	batched, unbatched := runLoops(Config{OpBuffer: 4},
		func() Machine { return &fixedMachine{cores: 4, latency: 0} }, prog)
	assertLoopsAgree(t, batched, unbatched)
	acc := batched.acc
	if len(acc) != 30 {
		t.Fatalf("got %d accesses, want 30", len(acc))
	}
	for i, a := range acc {
		if want := mem.ThreadID(1 + i/10); a.Thread != want {
			t.Fatalf("access %d by thread %d, want %d (zero-latency threads must run whole)",
				i, a.Thread, want)
		}
		if a.Latency != 0 || a.Time != 0 {
			t.Fatalf("access %d = %+v, want zero latency at time 0", i, a)
		}
	}
}

// TestVtimeTiesAcrossThreads: four threads with identical bodies and no
// creation stagger stay tied on vtime for the whole run; the id
// tie-break must serialize them identically batched and unbatched.
func TestVtimeTiesAcrossThreads(t *testing.T) {
	body := func(tt *T) {
		for i := 0; i < 8; i++ {
			tt.Store(0x40)
			tt.Compute(3)
		}
	}
	prog := Program{
		Name:   "ties",
		Phases: []Phase{ParallelPhase("p", body, body, body, body)},
	}
	batched, unbatched := runLoops(Config{OpBuffer: 4},
		func() Machine { return &fixedMachine{cores: 8, latency: 5} }, prog)
	assertLoopsAgree(t, batched, unbatched)
	acc := batched.acc
	if len(acc) != 32 {
		t.Fatalf("got %d accesses, want 32", len(acc))
	}
	// All four threads issue access round k at the same vtime (the group
	// stays tied for the whole run), so each consecutive group of four
	// accesses must contain every thread exactly once at the round's
	// vtime. The order within a round is the engine's deterministic
	// tie-resolution — pinned by assertLoopsAgree, not re-derived here.
	for round := 0; round < len(acc)/4; round++ {
		seen := map[mem.ThreadID]bool{}
		for i := round * 4; i < (round+1)*4; i++ {
			a := acc[i]
			if a.Thread < 1 || a.Thread > 4 || seen[a.Thread] {
				t.Fatalf("round %d: access %d by unexpected/duplicate thread %d", round, i, a.Thread)
			}
			seen[a.Thread] = true
			if wantT := uint64(round * 8); a.Time != wantT {
				t.Fatalf("round %d: access %d at vtime %d, want %d", round, i, a.Time, wantT)
			}
		}
	}
}

// TestPooledPhasesAcrossSchedulers: pooled phases re-enter threads with
// clocks mid-flight; both engine loops must agree across phase
// boundaries.
func TestPooledPhasesAcrossSchedulers(t *testing.T) {
	mk := func(step int) Body {
		return func(tt *T) {
			for i := 0; i < 6; i++ {
				tt.Store(mem.Addr(0x500 + 4*step))
				tt.Compute(step)
			}
		}
	}
	prog := Program{
		Name: "pooled",
		Phases: []Phase{
			PooledPhase("p1", mk(3), mk(5), mk(7)),
			SerialPhase("s", func(tt *T) { tt.Compute(11) }),
			PooledPhase("p2", mk(2), mk(4), mk(6)),
		},
	}
	batched, unbatched := runLoops(Config{ThreadCreateCycles: 50, ThreadJoinCycles: 20, OpBuffer: 4},
		func() Machine { return &fixedMachine{cores: 4, latency: 9} }, prog)
	assertLoopsAgree(t, batched, unbatched)
}
