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

// heapItem is one heap slot. The sort key (vtime, id) is stored inline so
// comparisons during sifts do not chase thread pointers; vt is a snapshot
// of th.vtime, refreshed by FixMin for the only thread whose clock moves
// (the running root).
type heapItem struct {
	vt uint64
	id mem.ThreadID
	th *thread
}

// threadHeap is the binary min-heap Scheduler: threads ordered by
// (vtime, id), the id tie-break making interleavings fully
// deterministic. It exploits the run-in-place contract directly — the
// root stays in the heap while it runs, so FixMin is a single siftDown
// (the second-earliest thread is always a root child), half the heap
// work of a pop/push pair.
type threadHeap struct {
	items []heapItem
}

func newThreadHeap(capacity int) *threadHeap {
	return &threadHeap{items: make([]heapItem, 0, capacity)}
}

func (h *threadHeap) Len() int     { return len(h.items) }
func (h *threadHeap) Min() *thread { return h.items[0].th }

// NextVtime returns the virtual time of the second-earliest thread, or
// the maximum time when the root is alone. In a binary min-heap ordered
// primarily by vtime, the minimum non-root vtime is at a root child.
func (h *threadHeap) NextVtime() uint64 {
	switch len(h.items) {
	case 1:
		return ^uint64(0)
	case 2:
		return h.items[1].vt
	default:
		v := h.items[1].vt
		if w := h.items[2].vt; w < v {
			v = w
		}
		return v
	}
}

// NextKey returns the full (vtime, id) key of the second-earliest
// thread — the smaller-keyed root child — or the sentinel maximum when
// the root is alone.
func (h *threadHeap) NextKey() (uint64, mem.ThreadID) {
	switch len(h.items) {
	case 1:
		return ^uint64(0), maxThreadID
	case 2:
		return h.items[1].vt, h.items[1].id
	default:
		it := h.items[1]
		if h.items[2].less(it) {
			it = h.items[2]
		}
		return it.vt, it.id
	}
}

// FixMin restores heap order after the root thread's vtime has increased.
func (h *threadHeap) FixMin() {
	h.items[0].vt = h.items[0].th.vtime
	h.siftDown(0)
}

func (a heapItem) less(b heapItem) bool {
	if a.vt != b.vt {
		return a.vt < b.vt
	}
	return a.id < b.id
}

func (h *threadHeap) Push(th *thread) {
	h.items = append(h.items, heapItem{vt: th.vtime, id: th.id, th: th})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].less(h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *threadHeap) PopMin() *thread {
	top := h.items[0].th
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *threadHeap) siftDown(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.items[left].less(h.items[smallest]) {
			smallest = left
		}
		if right < n && h.items[right].less(h.items[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
