package exec

import "repro/internal/mem"

// AccessPacer is an optional Probe extension for probes whose Access
// method is a guaranteed no-op (returns zero charge, changes no state)
// below a per-thread threshold — the PMU, whose sampling counter makes
// every access between tag points invisible to it. When every attached
// probe is a pacer, the batched engine loop skips probe dispatch (and
// the mem.Access materialization feeding it) entirely until the earliest
// threshold, then re-queries after each real call.
//
// The engine caches thresholds per thread across timeslices, so they
// must be stable from the thread's own point of view: a returned
// threshold may only tighten as a result of that thread's own dispatched
// Access calls or its ThreadStart — never because of activity on other
// threads. The PMU's per-thread sampling counters satisfy this by
// construction.
type AccessPacer interface {
	// AccessPace returns thread id's current thresholds: the probe
	// guarantees Access(a, instrs) is a no-op whenever
	// instrs < instrPace and a.Time+a.Latency < cyclePace. A probe whose
	// Access never does anything returns (^uint64(0), ^uint64(0)).
	AccessPace(id mem.ThreadID) (instrPace, cyclePace uint64)
}

// accessPace folds the attached probes' pace thresholds for thread id.
// ok is false when any probe is not an AccessPacer — then every access
// must be dispatched.
func (e *Engine) accessPace(id mem.ThreadID) (instrPace, cyclePace uint64, ok bool) {
	instrPace, cyclePace = ^uint64(0), ^uint64(0)
	for _, pr := range e.probes {
		p, isPacer := pr.(AccessPacer)
		if !isPacer {
			return 0, 0, false
		}
		ip, cp := p.AccessPace(id)
		if ip < instrPace {
			instrPace = ip
		}
		if cp < cyclePace {
			cyclePace = cp
		}
	}
	return instrPace, cyclePace, true
}

// runSlice runs th in place while its (vtime, id) key remains the
// run-queue minimum: (limVt, limID) is the second-earliest key, and th
// keeps executing until its vtime passes limVt — or reaches it holding
// the larger id. This produces exactly the per-op reference schedule
// (there every op goes to the least (vtime, id), so the running thread
// wins op after op); batching the stretch amortizes run-queue traffic
// and keeps thread state in registers.
//
// Compute ops additionally run ahead *past* the bound: they touch no
// machine or probe state — only this thread's own clock and instruction
// counter — so consuming them early commutes with every other thread's
// ops and leaves the global access/probe event sequence untouched; the
// thread simply re-enters the scheduler with the further-advanced key it
// would have reached anyway. Two stops keep the observable sequence
// exact: an access op never dispatches at or past the bound, and the
// run-ahead never consumes a buffer's final op — refill, and therefore
// end-of-body detection (finishThread's ThreadEnd/Result ordering), must
// happen only at reference-exact points. Byte-identical results are
// enforced by TestBatchedUnbatchedEquivalence. Returns false when the
// thread's body finished (the caller pops and finishes it).
func (e *Engine) runSlice(th *thread, limVt uint64, limID mem.ThreadID) bool {
	// Collapse the two-branch exit test (vtime > limVt, or vtime == limVt
	// and the id tie-break lost) into a single comparison against bound.
	// When this thread wins id ties it may run through vtime == limVt, so
	// the bound is limVt+1 — except at the ^uint64(0) sentinel, where the
	// +1 would wrap; stopping at the sentinel instead merely costs one
	// extra scheduler round with an identical schedule.
	bound := limVt
	if th.id < limID && limVt != ^uint64(0) {
		bound = limVt + 1
	}
	vtime := th.vtime
	instrs := th.instrs
	memAcc, memCyc := th.memAccesses, th.memCycles
	buf, pos := th.buf, th.pos
	m := e.machine
	core := th.core

	if len(e.probes) == 0 {
		// Probe-free (native) run: no mem.Access materialization, no
		// dispatch — just the machine and the thread's counters.
		for {
			o := buf[pos]
			if o.kind == opCompute {
				if vtime >= bound && pos == len(buf)-1 {
					break
				}
				pos++
				vtime += uint64(o.n)
				instrs += uint64(o.n)
			} else {
				if vtime >= bound {
					break
				}
				pos++
				lat := uint64(m.Access(core, o.addr, o.kind == opStore, vtime))
				instrs++
				memAcc++
				memCyc += lat
				vtime += lat
			}
			if pos == len(buf) {
				th.vtime, th.instrs = vtime, instrs
				th.memAccesses, th.memCycles = memAcc, memCyc
				if !th.refill() {
					return false
				}
				buf, pos = th.buf, 0
			}
		}
		th.vtime, th.instrs = vtime, instrs
		th.memAccesses, th.memCycles = memAcc, memCyc
		th.pos = pos
		return true
	}

	id := th.id
	probes := e.probes
	if th.paceState == 0 {
		ip, cp, ok := e.accessPace(id)
		th.paceInstr, th.paceCycle = ip, cp
		if ok {
			th.paceState = 1
		} else {
			th.paceState = 2
		}
	}
	paced := th.paceState == 1
	instrPace, cyclePace := th.paceInstr, th.paceCycle
	for {
		o := buf[pos]
		if o.kind == opCompute {
			if vtime >= bound && pos == len(buf)-1 {
				break
			}
			pos++
			vtime += uint64(o.n)
			instrs += uint64(o.n)
		} else {
			if vtime >= bound {
				break
			}
			pos++
			write := o.kind == opStore
			lat := m.Access(core, o.addr, write, vtime)
			instrs++
			memAcc++
			memCyc += uint64(lat)
			end := vtime + uint64(lat)
			if paced && instrs < instrPace && end < cyclePace {
				// Every probe guaranteed a no-op here: skip dispatch.
				vtime = end
			} else {
				acc := mem.Access{
					Addr:    o.addr,
					Thread:  id,
					Kind:    mem.Read,
					Size:    o.size,
					Latency: lat,
					Time:    vtime,
				}
				if write {
					acc.Kind = mem.Write
				}
				vtime = end
				for _, pr := range probes {
					vtime += pr.Access(acc, instrs)
				}
				if paced {
					instrPace, cyclePace, paced = e.accessPace(id)
					th.paceInstr, th.paceCycle = instrPace, cyclePace
					if !paced {
						th.paceState = 2
					}
				}
			}
		}
		if pos == len(buf) {
			th.vtime, th.instrs = vtime, instrs
			th.memAccesses, th.memCycles = memAcc, memCyc
			if !th.refill() {
				return false
			}
			buf, pos = th.buf, 0
		}
	}
	th.vtime, th.instrs = vtime, instrs
	th.memAccesses, th.memCycles = memAcc, memCyc
	th.pos = pos
	return true
}
