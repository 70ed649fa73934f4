package exec

import (
	"fmt"
	"runtime/debug"

	"repro/internal/mem"
)

// opKind distinguishes the three operation types a thread body can issue.
type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opCompute
)

// op is one thread operation: a memory access or a block of pure compute
// instructions.
type op struct {
	kind opKind
	size uint8
	n    uint32 // compute instruction count
	addr mem.Addr
}

// T is the context handed to a thread body. Its methods record operations
// into a buffer that the engine consumes in virtual-time order; bodies
// never block except when the engine has fallen a full buffer behind.
type T struct {
	id    mem.ThreadID
	index int
	buf   []op
	out   chan []op
	free  chan []op
}

// ID returns the engine-wide thread id.
func (t *T) ID() mem.ThreadID { return t.id }

// Index returns the thread's index within its phase (0-based).
func (t *T) Index() int { return t.index }

// Load issues a 4-byte load from addr.
func (t *T) Load(addr mem.Addr) { t.emit(op{kind: opLoad, size: 4, addr: addr}) }

// Store issues a 4-byte store to addr.
func (t *T) Store(addr mem.Addr) { t.emit(op{kind: opStore, size: 4, addr: addr}) }

// Load8 issues an 8-byte load (e.g. the long long fields of
// linear_regression's lreg_args).
func (t *T) Load8(addr mem.Addr) { t.emit(op{kind: opLoad, size: 8, addr: addr}) }

// Store8 issues an 8-byte store.
func (t *T) Store8(addr mem.Addr) { t.emit(op{kind: opStore, size: 8, addr: addr}) }

// LoadN issues a load of size bytes. Sub-word sizes model the byte and
// halfword accesses imported traces carry; the size is preserved on the
// resulting mem.Access (sharing analysis remains word-granular).
func (t *T) LoadN(addr mem.Addr, size uint8) { t.emit(op{kind: opLoad, size: size, addr: addr}) }

// StoreN issues a store of size bytes.
func (t *T) StoreN(addr mem.Addr, size uint8) { t.emit(op{kind: opStore, size: size, addr: addr}) }

// Compute advances the thread by n arithmetic instructions (one cycle
// each) without touching memory.
func (t *T) Compute(n int) {
	for n > 0 {
		chunk := n
		const max = 1 << 30
		if chunk > max {
			chunk = max
		}
		t.emit(op{kind: opCompute, n: uint32(chunk)})
		n -= chunk
	}
}

// emit appends an operation, flushing the buffer to the engine when full.
func (t *T) emit(o op) {
	t.buf = append(t.buf, o)
	if len(t.buf) == cap(t.buf) {
		t.flush()
	}
}

// Flush hands the operations issued so far to the engine now rather than
// when the buffer fills. A body about to block on something other than
// the engine (a trace loader's queue) calls it first, so the engine is
// never left waiting on operations the body already holds. Buffer
// boundaries are invisible to the schedule, so flushing never changes
// an execution.
func (t *T) Flush() { t.flush() }

// flush hands the current buffer to the engine and picks up an empty one.
func (t *T) flush() {
	if len(t.buf) == 0 {
		return
	}
	t.out <- t.buf
	t.buf = (<-t.free)[:0]
}

// thread is the engine-side state of one simulated thread.
type thread struct {
	id    mem.ThreadID
	core  int
	phase int
	start uint64

	vtime       uint64
	instrs      uint64
	memAccesses uint64
	memCycles   uint64

	body Body
	t    *T
	out  chan []op
	free chan []op
	// panicked is the body's recovered panic, written by the generator
	// before it closes out, so the engine may read it once refill has
	// seen out closed.
	panicked *BodyPanic

	buf []op
	pos int

	// Probe pace cache (see AccessPacer): the folded thresholds for this
	// thread, refreshed by runSlice only after a dispatched probe call.
	// paceState: 0 = not yet queried, 1 = all probes pace, 2 = at least
	// one probe must see every access. Caching here keeps the per-probe
	// interface assertions out of the slice hot path.
	paceInstr uint64
	paceCycle uint64
	paceState uint8
}

// initThread initializes a slab-allocated thread whose virtual clock
// starts at start. index is the thread's position within its phase;
// genBuf and engBuf are the two (possibly pooled) op buffers that rotate
// between generator and engine.
func initThread(th *thread, t *T, id mem.ThreadID, core, phase, index int, start uint64, genBuf, engBuf []op, body Body) {
	out := make(chan []op, 1)
	free := make(chan []op, 2)
	free <- engBuf
	*t = T{id: id, index: index, buf: genBuf, out: out, free: free}
	*th = thread{
		id: id, core: core, phase: phase, start: start, vtime: start,
		body: body, t: t, out: out, free: free,
	}
}

// BodyPanic is a thread body's panic as Run re-raises it. A body runs on
// its own generator goroutine, where no caller's recover can reach it,
// so the generator recovers the panic and ends the thread there; the
// engine finishes the phase's other threads, leaving no generator
// blocked, and then panics with this value on the goroutine that called
// Run. It prints as the original value; Stack is the body's goroutine
// stack at the panic.
type BodyPanic struct {
	Value any
	Stack []byte
}

func (p *BodyPanic) Error() string { return fmt.Sprint(p.Value) }

// startGen launches the generator goroutine running the thread body.
func (th *thread) startGen() {
	go func() {
		defer close(th.out)
		defer func() {
			if r := recover(); r != nil {
				th.panicked = &BodyPanic{Value: r, Stack: debug.Stack()}
			}
		}()
		th.body(th.t)
		th.t.flush()
	}()
}

// refill obtains the next operation buffer, returning false when the body
// has finished. The previous buffer is recycled to the generator.
func (th *thread) refill() bool {
	if th.buf != nil {
		select {
		case th.free <- th.buf:
		default:
		}
	}
	buf, ok := <-th.out
	if !ok {
		th.buf = nil
		return false
	}
	th.buf = buf
	th.pos = 0
	return len(buf) > 0 || th.refill()
}
