// Package progen generates randomized fork-join programs for the engine
// equivalence suites (batched vs per-op, flushed vs unflushed, and the
// root report suite): seeded, reproducible, and
// shrink-friendly — the Case index scales every size knob, so case 0 is
// a single thread issuing a handful of operations and later cases grow
// toward paper-shaped programs (multiple serial/parallel/pooled phases,
// oversubscribed thread counts, deliberate (vtime, id) ties, far-future
// compute sleeps). A failing case therefore reproduces from (Seed, Case)
// alone, and the smallest failing index is already close to minimal.
//
// Generated bodies replay pre-materialized operation lists, never
// consulting the generator at simulation time, so a program is safe to
// run any number of times (and concurrently from its goroutine-per-
// thread bodies) with identical behavior — the property the equivalence
// suites rely on when they run one program on two engine loops and
// byte-compare.
package progen

import (
	"math/rand"

	"repro/internal/exec"
	"repro/internal/mem"
)

// Config seeds and bounds one generated program.
type Config struct {
	// Seed selects the random stream; combined with Case, it fully
	// determines the program.
	Seed int64
	// Case is the case index within a suite run. Sizes (phases, threads,
	// operations, address spread) grow with it.
	Case int
	// Addrs are the base addresses bodies touch — typically a few heap
	// objects and globals, so detection reports have something to
	// attribute. At least one is required. Bodies access small offsets
	// (within a few cache lines) off these bases, which manufactures
	// both true and false sharing.
	Addrs []mem.Addr
	// MaxThreads caps the per-phase thread count (default 8). The
	// generator intentionally exceeds typical core counts on later
	// cases, so oversubscription is covered.
	MaxThreads int
	// Flushes makes every body also call T.Flush at pseudo-random points.
	// The points come from a random stream of their own, so the program
	// issues exactly the operations of its unflushed twin.
	Flushes bool
}

// genOp is one materialized operation.
type genOp struct {
	kind byte // 'l' load, 's' store, 'L' load8, 'S' store8, 'n' loadN, 'N' storeN, 'c' compute
	addr mem.Addr
	size uint8
	n    int
}

// phaseSpec is one materialized phase: its kind plus the operation list
// of every body.
type phaseSpec struct {
	serial bool
	pooled bool
	bodies [][]genOp
}

// Generate builds the program for cfg. The same cfg always yields a
// behaviorally identical program.
func Generate(cfg Config) exec.Program {
	prog := exec.Program{Name: "progen"}
	var flushRng *rand.Rand
	if cfg.Flushes {
		flushRng = rand.New(rand.NewSource(^cfg.Seed ^ int64(cfg.Case)))
	}
	for _, ph := range materialize(cfg) {
		bodies := make([]exec.Body, len(ph.bodies))
		for i, ops := range ph.bodies {
			bodies[i] = replay(ops, flushPoints(flushRng, len(ops)))
		}
		switch {
		case ph.serial:
			prog.Phases = append(prog.Phases, exec.SerialPhase("serial", bodies[0]))
		case ph.pooled:
			prog.Phases = append(prog.Phases, exec.PooledPhase("pooled", bodies...))
		default:
			prog.Phases = append(prog.Phases, exec.ParallelPhase("parallel", bodies...))
		}
	}
	return prog
}

// materialize draws the full program shape and every operation list
// from cfg's random stream.
func materialize(cfg Config) []phaseSpec {
	if len(cfg.Addrs) == 0 {
		panic("progen: Config.Addrs must name at least one base address")
	}
	maxThreads := cfg.MaxThreads
	if maxThreads <= 0 {
		maxThreads = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(cfg.Case)*0x9e3779b97f4a7c15)))

	// Size knobs grow with the case index and saturate, keeping even the
	// nightly 2000-case sweep affordable.
	grow := cfg.Case
	if grow > 200 {
		grow = 200
	}
	maxPhases := 1 + min(grow/4, 3)
	maxBodies := 1 + min(1+grow/8, maxThreads-1)
	maxOps := 4 + min(grow*2, 220)

	var spec []phaseSpec
	phases := 1 + rng.Intn(maxPhases)
	for p := 0; p < phases; p++ {
		switch k := rng.Intn(6); {
		case k == 0:
			spec = append(spec, phaseSpec{serial: true,
				bodies: [][]genOp{genOps(rng, cfg.Addrs, 1+rng.Intn(maxOps))}})
		default:
			spec = append(spec, phaseSpec{pooled: k == 1,
				bodies: genBodies(rng, cfg.Addrs, 1+rng.Intn(maxBodies), maxOps)})
		}
	}
	return spec
}

// genBodies materializes n thread bodies. With one-in-three probability
// every thread replays the same operation list — threads that start
// together then stay tied on (vtime, id) for the whole phase, the
// tie-break stress the equivalence suite cares most about.
func genBodies(rng *rand.Rand, addrs []mem.Addr, n, maxOps int) [][]genOp {
	bodies := make([][]genOp, n)
	if n >= 2 && rng.Intn(3) == 0 {
		ops := genOps(rng, addrs, 1+rng.Intn(maxOps))
		for i := range bodies {
			bodies[i] = ops
		}
		return bodies
	}
	for i := range bodies {
		bodies[i] = genOps(rng, addrs, 1+rng.Intn(maxOps))
	}
	return bodies
}

// genOps materializes one operation list: loads/stores of every width
// clustered around the base addresses (offsets span two cache lines, so
// distinct threads collide on lines and words), compute blocks from
// zero-length to far past any scheduler bucket horizon, and occasional
// address reuse for true-sharing traffic.
func genOps(rng *rand.Rand, addrs []mem.Addr, n int) []genOp {
	ops := make([]genOp, n)
	for i := range ops {
		base := addrs[rng.Intn(len(addrs))]
		addr := base + mem.Addr(rng.Intn(128))
		switch rng.Intn(12) {
		case 0, 1, 2:
			ops[i] = genOp{kind: 'l', addr: addr &^ 3}
		case 3, 4, 5:
			ops[i] = genOp{kind: 's', addr: addr &^ 3}
		case 6:
			ops[i] = genOp{kind: 'L', addr: addr &^ 7}
		case 7:
			ops[i] = genOp{kind: 'S', addr: addr &^ 7}
		case 8:
			ops[i] = genOp{kind: 'n', addr: addr, size: uint8(1 << rng.Intn(2))}
		case 9:
			ops[i] = genOp{kind: 'N', addr: addr, size: uint8(1 << rng.Intn(2))}
		default:
			// Compute gaps: mostly short, sometimes zero (no clock
			// advance at all), rarely enormous (a far-future wakeup
			// that sends the thread to the back of the run queue).
			var c int
			switch rng.Intn(8) {
			case 0:
				c = 0
			case 1:
				c = 2000 + rng.Intn(100000)
			default:
				c = rng.Intn(300)
			}
			ops[i] = genOp{kind: 'c', n: c}
		}
	}
	return ops
}

// flushPoints draws where a body of n operations flushes: flush[i]
// flushes before operation i, flush[n] after the last. Densities range
// from a flush before nearly every operation to a rare one. A nil rng
// yields nil: no flushes.
func flushPoints(rng *rand.Rand, n int) []bool {
	if rng == nil {
		return nil
	}
	flush := make([]bool, n+1)
	every := 1 + rng.Intn(16)
	for i := range flush {
		flush[i] = rng.Intn(every) == 0
	}
	return flush
}

// replay wraps a materialized operation list as a thread body, calling
// T.Flush wherever flush says.
func replay(ops []genOp, flush []bool) exec.Body {
	return func(t *exec.T) {
		for i, o := range ops {
			if flush != nil && flush[i] {
				t.Flush()
			}
			switch o.kind {
			case 'l':
				t.Load(o.addr)
			case 's':
				t.Store(o.addr)
			case 'L':
				t.Load8(o.addr)
			case 'S':
				t.Store8(o.addr)
			case 'n':
				t.LoadN(o.addr, o.size)
			case 'N':
				t.StoreN(o.addr, o.size)
			default:
				t.Compute(o.n)
			}
		}
		if flush != nil && flush[len(ops)] {
			t.Flush()
		}
	}
}
