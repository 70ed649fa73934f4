package exec

import "repro/internal/mem"

// sortedItem is one scheduler entry: the thread's cached (vtime, id) key
// plus its index in the queue's thread table. Keeping the item
// pointer-free matters: FixMin shifts items on every timeslice, and a
// pointer field would make each shift a write-barriered store and the
// whole ring a GC scan target.
type sortedItem struct {
	vt  uint64
	id  mem.ThreadID
	idx int32
}

// maxThreadID is the NextKey id sentinel when Min is alone: no real
// thread id compares at or above it.
const maxThreadID = mem.ThreadID(1<<31 - 1)

func (a sortedItem) less(b sortedItem) bool {
	return a.vt < b.vt || (a.vt == b.vt && a.id < b.id)
}

// sortedQueue is the engine's run queue: every runnable thread in a ring
// buffer sorted descending by (vtime, id), minimum at the logical tail.
// The id tie-break makes the key total, so the schedule is fully
// deterministic.
//
// The engine runs the minimum thread in place: it peeks Min, runs it
// until its clock passes the second-earliest key (NextKey), then calls
// FixMin to restore order, or PopMin once its body has finished. Only
// Min's vtime may change between calls. The layout is chosen for that
// call pattern — Min, NextKey and PopMin are plain loads off the tail,
// and FixMin (the per-slice reschedule) re-places only the advanced
// thread. Two regimes dominate:
//
//   - lockstep: every thread clock tied, the minimum leapfrogging the
//     whole queue each slice. The advanced item belongs at the front,
//     which the ring serves in O(1): step the head back one slot and
//     write (the vacated tail slot falls out of the window).
//   - near-lockstep: clocks clustered within one memory latency, the
//     advanced item landing a slot or two from the tail — a one- or
//     two-step insertion walk, where a binary heap pays a fixed
//     ~2·log n.
//
// The trade-off is an O(n) worst-case walk when one thread lands
// mid-queue; measured end to end, a binary heap did not beat it even
// at 256 threads.
type sortedQueue struct {
	// buf is the ring storage; its length is a power of two. The live
	// window is the size items starting at head, descending by (vt, id):
	// logical index 0 (the front) is the largest key, size-1 the minimum.
	buf  []sortedItem
	head int
	size int
	// ths maps item idx to the thread. Entries are append-only for the
	// queue's (one phase's) lifetime, so indexes in ring items stay valid
	// after any number of pops.
	ths []*thread
}

func newSortedQueue(capacity int) *sortedQueue {
	n := 8
	for n < capacity {
		n <<= 1
	}
	return &sortedQueue{
		buf: make([]sortedItem, n),
		ths: make([]*thread, 0, capacity),
	}
}

// idx maps a logical position (0 = front) to a ring slot.
func (q *sortedQueue) idx(i int) int { return (q.head + i) & (len(q.buf) - 1) }

func (q *sortedQueue) Len() int     { return q.size }
func (q *sortedQueue) Min() *thread { return q.ths[q.buf[q.idx(q.size-1)].idx] }

func (q *sortedQueue) NextKey() (uint64, mem.ThreadID) {
	if q.size < 2 {
		return ^uint64(0), maxThreadID
	}
	it := &q.buf[q.idx(q.size-2)]
	return it.vt, it.id
}

func (q *sortedQueue) Push(th *thread) {
	if q.size == len(q.buf) {
		grown := make([]sortedItem, 2*len(q.buf))
		for i := 0; i < q.size; i++ {
			grown[i] = q.buf[q.idx(i)]
		}
		q.buf, q.head = grown, 0
	}
	q.ths = append(q.ths, th)
	q.size++
	q.place(sortedItem{vt: th.vtime, id: th.id, idx: int32(len(q.ths) - 1)})
}

// FixMin re-places the tail item after its thread's clock advanced in
// place. The descending order means the item only ever moves toward the
// front.
func (q *sortedQueue) FixMin() {
	it := q.buf[q.idx(q.size-1)]
	it.vt = q.ths[it.idx].vtime
	if q.size > 1 && q.buf[q.head].less(it) {
		// New front: claim the slot before head; the vacated tail slot
		// falls out of the window, so the size is unchanged.
		q.head = (q.head - 1) & (len(q.buf) - 1)
		q.buf[q.head] = it
		return
	}
	q.place(it)
}

// place slides it from the tail toward the front until descending order
// holds, shifting smaller-keyed items back by one. The final (logical)
// tail slot is overwritten — callers either just vacated it (FixMin) or
// grew size to open it (Push). The walk steps raw ring slots with a
// single mask per step instead of re-deriving head-relative indexes.
func (q *sortedQueue) place(it sortedItem) {
	mask := len(q.buf) - 1
	p := (q.head + q.size - 1) & mask
	for i := q.size - 1; i > 0; i-- {
		prev := (p - 1) & mask
		if !q.buf[prev].less(it) {
			break
		}
		q.buf[p] = q.buf[prev]
		p = prev
	}
	q.buf[p] = it
}

func (q *sortedQueue) PopMin() *thread {
	th := q.ths[q.buf[q.idx(q.size-1)].idx]
	q.size--
	return th
}
