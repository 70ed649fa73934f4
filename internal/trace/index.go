// Seekable index blocks: binary framing v3.
//
// A v3 trace is a v2 record stream (identical encoding, new magic)
// optionally terminated by one index record and a fixed-size footer:
//
//	[magic][records...][kindIndexBlock][payload len][payload][footer]
//
// The footer is 16 bytes: the little-endian byte offset of the index
// record, then the 8-byte magic "CHTRIX1\n" — so a seeking reader finds
// the index from the end of the file in one read, and a sequential
// reader (or a v3 stream whose writer could not index it) decodes the
// records exactly as v2.
//
// The payload partitions the record stream into layout regions (program
// identity, symbol/object snapshots) and phase segments (one KindPhase
// record plus its accesses and thread ends). Each segment carries its
// byte range, per-thread record counts, and the v2 delta-prediction
// snapshots (per-thread access state, running symbol/object state) that
// let a reader start decoding cold from the segment's first byte.
//
// The IndexedEncoder writes a segment as its phase record (the head)
// followed by blocks, each holding the records that arrived while it was
// open, grouped by thread in ascending id order: a block closes before
// it outgrows blockCap bytes or any thread's span in it outgrows
// spanCap. Grouping moves no bytes within a thread, and v2 deltas are
// per thread, so every record encodes exactly as in arrival order. The
// index (payload format 3) gives each block's per-thread spans —
// offset, length and CRC32C — so the streaming replayer (stream.go)
// reads each thread's records alone, one verified span at a time.
//
// Indexes come from external files, so the reader validates everything
// before use: the regions and segments must exactly tile the record
// area in order, each segment's blocks must tile it past its head and
// each block's spans must tile the block, counts must be consistent,
// and every snapshot value must satisfy the same bounds the sequential
// decoder enforces. All failures are terminal errors, never panics.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"repro/internal/mem"
)

// kindIndexBlock is the record kind byte introducing the index. It is
// far outside the Kind enum, so a v2 decoder hitting one (impossible:
// v2 files never contain it) would fail loudly rather than misparse.
const kindIndexBlock = 0x58

// footerMagic closes an indexed trace; footerSize is the fixed tail
// (8-byte offset + magic) a seeking reader grabs first.
var footerMagic = []byte("CHTRIX1\n")

const footerSize = 16

// indexFormat versions the payload layout itself. Format 2 added a
// CRC32-Castagnoli checksum per layout region and per phase segment,
// covering the span's raw record bytes, so corrupt payloads under a
// structurally valid index fail at load instead of decoding to garbage.
// Format 3 groups each segment's records into blocks of per-thread
// spans, each with its own checksum; the segment checksum then covers
// only the segment's head. Format-1 indexes (pre-checksum corpus files)
// still parse and skip verification; format-1 and format-2 segments
// interleave their threads' records, and replay reads them whole.
const (
	indexFormatV1 = 1
	indexFormatV2 = 2
	indexFormat   = 3
)

// blockCap bounds one block of a segment in bytes: the most the
// IndexedEncoder holds back to group by thread.
const blockCap = 1 << 20

// spanCap bounds one thread's span of a block: the IndexedEncoder
// closes a block before any thread's span outgrows it. The engine starts
// a phase's threads one at a time, waiting for each body's first
// operations, and a body reads and checks a whole span before decoding
// any of it, so short spans keep those waits short. Many threads'
// spans still fill a block, however few records each holds.
const spanCap = 8 << 10

// heldChunk is the unit the IndexedEncoder holds a block's records in:
// each thread's records fill chunks of its own, and written chunks are
// reused, so holding costs about blockCap plus a chunk per thread and
// allocates nothing once warm.
const heldChunk = 2 << 10

// castagnoli is the CRC32C table shared by the index writer and the
// span verifiers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptPayloadError reports a span whose record bytes fail their
// indexed checksum: the index is structurally valid but the payload
// under it was damaged. Callers distinguish it with errors.As.
type CorruptPayloadError struct {
	Path  string
	Phase int // -1 for a layout region
	// Thread is the thread whose block span failed, or -1 for a layout
	// region or a segment's own checksum.
	Thread int
	Off    uint64
	Want   uint32
	Got    uint32
}

func (e *CorruptPayloadError) Error() string {
	span := "layout region"
	switch {
	case e.Thread >= 0:
		span = fmt.Sprintf("phase %d span of thread %d", e.Phase, e.Thread)
	case e.Phase >= 0:
		span = fmt.Sprintf("phase %d segment", e.Phase)
	}
	return fmt.Sprintf("trace: %s: %s at offset %d fails its checksum (want %08x, got %08x)",
		e.Path, span, e.Off, e.Want, e.Got)
}

// minAccessRecord is the smallest v2 access record in bytes: kind,
// thread id, flags, and one-byte addr and ip deltas. It bounds how many
// accesses a segment of a given length can hold.
const minAccessRecord = 5

// maxIndexPayload bounds the index block before any allocation is sized
// from it; generous for ~65k phases with wide thread sets.
const maxIndexPayload = 1 << 28

// ErrNoIndex reports a trace without a (valid) seekable index; callers
// fall back to sequential decoding.
var ErrNoIndex = errors.New("trace: no index block")

// ErrUnindexable reports a record stream the IndexedEncoder could not
// index (see NewIndexedEncoder); the written file is still a valid,
// sequentially decodable v3 trace.
var ErrUnindexable = errors.New("trace: stream not indexable")

// layoutRegion describes a run of metadata records (program identity,
// symbols, objects) between phase segments: the header every trace
// starts with, the end-of-run layout snapshot the recorders emit, and
// any interleaved metadata a hand-written trace carries.
type layoutRegion struct {
	off, length uint64
	syms, objs  uint64
	// meta is the symbol/object delta-prediction state at the region's
	// first byte.
	meta metaState
	// crc is the CRC32C of the region's record bytes (format ≥ 2).
	crc uint32
}

// segThread is one thread's entry in a phase segment.
type segThread struct {
	tid      mem.ThreadID
	accesses uint64
	// state is the thread's access-column prediction state at the
	// segment's first byte.
	state accessState
}

// indexSpan is one thread's records within one block (format 3).
type indexSpan struct {
	tid         mem.ThreadID
	off, length uint64
	crc         uint32
}

// indexBlock is one block of a segment (format 3): its byte range and
// the spans tiling it, in ascending thread order.
type indexBlock struct {
	off, length uint64
	spans       []indexSpan
}

// indexSegment describes one phase's byte range and enough context to
// decode it in isolation.
type indexSegment struct {
	phase       int
	off, length uint64
	accesses    uint64
	// maxSize is the largest access width in the segment, so a reader
	// can reject un-replayable sizes without decoding.
	maxSize uint64
	// addrMin and addrMax bound the segment's access addresses (both
	// zero when accesses is zero), letting replay skip the
	// foreign-address prescan when every access provably lands inside
	// the simulated segments.
	addrMin, addrMax uint64
	meta             metaState
	// crc is the CRC32C of the segment's record bytes in format 2, and
	// of its head (the bytes before its first block) in format 3.
	crc uint32
	// threads lists every thread with records in the segment, ascending.
	threads []segThread
	// blocks tile the segment past its head (format 3).
	blocks []indexBlock
}

// head returns the length of the segment's head: the bytes before its
// first block, or the whole segment when it has no blocks.
func (s *indexSegment) head() uint64 {
	if len(s.blocks) == 0 {
		return s.length
	}
	return s.blocks[0].off - s.off
}

// traceIndex is a parsed, validated index block.
type traceIndex struct {
	accesses uint64
	regions  []layoutRegion
	segs     []indexSegment
	// format is the payload format: the IndexedEncoder writes
	// indexFormat; older files carry indexFormatV1 or indexFormatV2.
	format int
}

// hasCRC reports whether the index carries span checksums (payload
// format ≥ 2); format-1 indexes load without verification.
func (idx *traceIndex) hasCRC() bool { return idx.format >= indexFormatV2 }

// IndexedEncoder writes the v3 framing: a v2-compatible record stream
// followed by a seekable index block. It observes the stream as it
// passes through and requires the structure every recorder in this
// package produces — records of a phase contiguous after its KindPhase
// record, phase indices distinct, the program record before the first
// phase. Streams violating that (certain hand-crafted traces) are
// written without an index and Close reports ErrUnindexable; the file
// remains a valid sequential trace.
//
// A phase's access and thread-end records are held back in the open
// block, at most blockCap bytes and spanCap per thread, and written
// grouped by thread when it closes.
type IndexedEncoder struct {
	b *BinaryEncoder

	idx    traceIndex
	phases map[int]bool

	// Exactly one of the two is open at any time; regions and segments
	// alternate as metadata and phase records arrive.
	inSeg     bool
	curRegion layoutRegion
	curSeg    indexSegment
	// curThreads finds the open segment's threads by id; curList holds
	// them in first-record order.
	curThreads tidTable[*encThread]
	curList    []*encThread
	// curCRC accumulates the checksum of the bytes written directly into
	// the open region or segment head.
	curCRC uint32

	// block lists the open block's threads; blockBytes counts its bytes.
	block      []*encThread
	blockBytes int
	// chunks recycles written heldChunk buffers.
	chunks [][]byte

	// reason latches why the stream cannot be indexed ("" = indexable).
	reason string
	// closed latches Close's result: the recorders and importers close
	// the encoder they write to, and a second Close by their caller must
	// not append a second index block.
	closed   bool
	closeErr error
}

// encThread is one thread of the open segment: its index entry and its
// records in the open block, in heldChunk-sized pieces, heldBytes in
// all.
type encThread struct {
	segThread
	held      [][]byte
	heldBytes int
}

// NewIndexedEncoder creates a binary v3 encoder over w. The magic is
// written immediately; the index block and footer are written by Close.
func NewIndexedEncoder(w io.Writer) *IndexedEncoder {
	e := &IndexedEncoder{
		b:      newBinaryEncoder(w, BinaryV3),
		idx:    traceIndex{format: indexFormat},
		phases: make(map[int]bool),
	}
	e.openRegion()
	return e
}

func (e *IndexedEncoder) openRegion() {
	e.inSeg = false
	e.curRegion = layoutRegion{off: e.b.written, meta: e.b.meta}
	e.curCRC = 0
}

// closeCurrent finalizes the open region or segment at the current
// write offset, writing a segment's open block first. Empty layout
// regions are dropped (they carry nothing).
func (e *IndexedEncoder) closeCurrent() {
	if e.inSeg {
		e.flushBlock()
		seg := e.curSeg
		seg.length = e.b.written - seg.off
		seg.crc = e.curCRC
		seg.threads = make([]segThread, 0, len(e.curList))
		for _, t := range e.curList {
			seg.threads = append(seg.threads, t.segThread)
		}
		sort.Slice(seg.threads, func(i, j int) bool { return seg.threads[i].tid < seg.threads[j].tid })
		e.idx.segs = append(e.idx.segs, seg)
		return
	}
	r := e.curRegion
	r.length = e.b.written - r.off
	r.crc = e.curCRC
	if r.length > 0 {
		e.idx.regions = append(e.idx.regions, r)
	}
}

// flushBlock writes the open block's records, thread after thread in
// ascending id order, and indexes each thread's span.
func (e *IndexedEncoder) flushBlock() {
	if e.blockBytes == 0 {
		return
	}
	sort.Slice(e.block, func(i, j int) bool { return e.block[i].tid < e.block[j].tid })
	blk := indexBlock{off: e.b.written, length: uint64(e.blockBytes), spans: make([]indexSpan, 0, len(e.block))}
	for _, t := range e.block {
		sp := indexSpan{tid: t.tid, off: e.b.written}
		for _, c := range t.held {
			sp.crc = crc32.Update(sp.crc, castagnoli, c)
			e.b.write(c)
			e.chunks = append(e.chunks, c[:0])
		}
		sp.length = e.b.written - sp.off
		blk.spans = append(blk.spans, sp)
		t.held, t.heldBytes = t.held[:0], 0
	}
	e.curSeg.blocks = append(e.curSeg.blocks, blk)
	e.block = e.block[:0]
	e.blockBytes = 0
}

// hold adds a record of the open segment to its thread's span of the
// open block, first writing the block out if the record would overflow
// it or the span.
func (e *IndexedEncoder) hold(tid mem.ThreadID, rec []byte) {
	t := e.thread(tid)
	if e.blockBytes+len(rec) > blockCap || t.heldBytes+len(rec) > spanCap {
		e.flushBlock()
	}
	n := len(t.held)
	if n == 0 {
		e.block = append(e.block, t)
	}
	if n == 0 || len(t.held[n-1])+len(rec) > heldChunk {
		var c []byte
		if k := len(e.chunks); k > 0 {
			c, e.chunks = e.chunks[k-1], e.chunks[:k-1]
		} else {
			c = make([]byte, 0, heldChunk)
		}
		t.held = append(t.held, c)
		n++
	}
	t.held[n-1] = append(t.held[n-1], rec...)
	t.heldBytes += len(rec)
	e.blockBytes += len(rec)
}

// fail latches the first reason the stream cannot be indexed and writes
// out the open block, so every later record goes straight to the
// output in arrival order.
func (e *IndexedEncoder) fail(reason string) {
	if e.reason == "" {
		e.reason = reason
		e.flushBlock()
	}
}

func (e *IndexedEncoder) thread(tid mem.ThreadID) *encThread {
	p := e.curThreads.at(tid)
	if *p == nil {
		t := &encThread{segThread: segThread{tid: tid, state: *e.b.prev.at(tid)}}
		*p = t
		e.curList = append(e.curList, t)
	}
	return *p
}

// observe runs before the record is encoded, so e.b.written is the
// record's start offset and e.b.prev/e.b.meta are the prediction state
// a mid-file decoder must be seeded with.
func (e *IndexedEncoder) observe(ev *Event) {
	switch ev.Kind {
	case KindProgram:
		if e.inSeg || len(e.idx.segs) > 0 {
			e.fail("program record after the first phase")
		}
	case KindSymbol, KindObject:
		if e.inSeg {
			e.closeCurrent()
			e.openRegion()
		}
		if ev.Kind == KindSymbol {
			e.curRegion.syms++
		} else {
			e.curRegion.objs++
		}
	case KindNote:
		// Notes are layout metadata: uncounted, but they must live in a
		// region so segments keep containing only their phase's records.
		if e.inSeg {
			e.closeCurrent()
			e.openRegion()
		}
	case KindPhase:
		e.closeCurrent()
		if e.phases[ev.Phase] {
			e.fail(fmt.Sprintf("phase %d declared twice", ev.Phase))
		}
		e.phases[ev.Phase] = true
		e.inSeg = true
		e.curSeg = indexSegment{phase: ev.Phase, off: e.b.written, meta: e.b.meta}
		e.curThreads, e.curList = tidTable[*encThread]{}, nil
		e.curCRC = 0
	case KindThreadEnd:
		if !e.inSeg || ev.Phase != e.curSeg.phase {
			e.fail("thread-end record outside its phase's segment")
			return
		}
		e.thread(ev.TID)
	case KindAccess:
		if !e.inSeg || ev.Phase != e.curSeg.phase {
			e.fail("access record outside its phase's segment")
			return
		}
		e.thread(ev.TID).accesses++
		s := &e.curSeg
		if s.accesses == 0 || uint64(ev.Addr) < s.addrMin {
			s.addrMin = uint64(ev.Addr)
		}
		if uint64(ev.Addr) > s.addrMax {
			s.addrMax = uint64(ev.Addr)
		}
		if ev.Size > s.maxSize {
			s.maxSize = ev.Size
		}
		s.accesses++
		e.idx.accesses++
	}
}

// Encode implements Encoder.
func (e *IndexedEncoder) Encode(ev Event) error {
	if e.b.err != nil {
		return e.b.err
	}
	e.observe(&ev)
	rec, err := e.b.appendRecord(e.b.buf[:0], &ev)
	if err != nil {
		return err
	}
	e.b.buf = rec[:0]
	if e.inSeg && e.reason == "" && (ev.Kind == KindAccess || ev.Kind == KindThreadEnd) {
		e.hold(ev.TID, rec)
		return e.b.err
	}
	e.curCRC = crc32.Update(e.curCRC, castagnoli, rec)
	return e.b.write(rec)
}

// Close implements Encoder: it appends the index block and footer, then
// flushes. If the stream was unindexable, the records alone are flushed
// and the error wraps ErrUnindexable. Later calls return the first
// call's result.
func (e *IndexedEncoder) Close() error {
	if !e.closed {
		e.closed, e.closeErr = true, e.close()
	}
	return e.closeErr
}

func (e *IndexedEncoder) close() error {
	e.closeCurrent()
	if e.b.err != nil {
		return e.b.err
	}
	if e.reason != "" {
		if err := e.b.Close(); err != nil {
			return err
		}
		return fmt.Errorf("%w: %s", ErrUnindexable, e.reason)
	}
	if _, err := e.b.w.Write(appendIndexBlock(nil, &e.idx, e.b.written)); err != nil {
		e.b.err = err
		return err
	}
	return e.b.Close()
}

// appendIndexBlock appends the index record for idx and the footer
// pointing at it, for records ending at indexOff.
func appendIndexBlock(b []byte, idx *traceIndex, indexOff uint64) []byte {
	payload := appendIndexPayload(nil, idx)
	b = append(b, kindIndexBlock)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[:8], indexOff)
	copy(foot[8:], footerMagic)
	return append(b, foot[:]...)
}

// appendIndexPayload serializes idx in its payload format; the
// IndexedEncoder always writes the current one.
func appendIndexPayload(b []byte, idx *traceIndex) []byte {
	b = append(b, byte(idx.format))
	b = binary.AppendUvarint(b, idx.accesses)
	b = binary.AppendUvarint(b, uint64(len(idx.regions)))
	for _, r := range idx.regions {
		for _, v := range []uint64{r.off, r.length, r.syms, r.objs, r.meta.symAddr, r.meta.objAddr, r.meta.objSeq} {
			b = binary.AppendUvarint(b, v)
		}
		if idx.hasCRC() {
			b = binary.AppendUvarint(b, uint64(r.crc))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(idx.segs)))
	for _, s := range idx.segs {
		for _, v := range []uint64{uint64(s.phase), s.off, s.length, s.accesses,
			s.maxSize, s.addrMin, s.addrMax, s.meta.symAddr, s.meta.objAddr, s.meta.objSeq} {
			b = binary.AppendUvarint(b, v)
		}
		if idx.hasCRC() {
			b = binary.AppendUvarint(b, uint64(s.crc))
		}
		b = binary.AppendUvarint(b, uint64(len(s.threads)))
		for _, t := range s.threads {
			for _, v := range []uint64{uint64(t.tid), t.accesses,
				t.state.addr, t.state.ip, t.state.size, t.state.lat, t.state.phase} {
				b = binary.AppendUvarint(b, v)
			}
		}
		if idx.format < indexFormat {
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(s.blocks)))
		for _, blk := range s.blocks {
			b = binary.AppendUvarint(b, blk.off)
			b = binary.AppendUvarint(b, blk.length)
			b = binary.AppendUvarint(b, uint64(len(blk.spans)))
			for _, sp := range blk.spans {
				for _, v := range []uint64{uint64(sp.tid), sp.off, sp.length, uint64(sp.crc)} {
					b = binary.AppendUvarint(b, v)
				}
			}
		}
	}
	return b
}

// byteCursor decodes bounded uvarints from an in-memory payload.
type byteCursor struct {
	p []byte
	i int
}

func (c *byteCursor) uvarint(what string, max uint64) (uint64, error) {
	v, n := binary.Uvarint(c.p[c.i:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: index: truncated or oversized %s", what)
	}
	c.i += n
	if v > max {
		return 0, fmt.Errorf("trace: index: %s %d exceeds limit %d", what, v, max)
	}
	return v, nil
}

const maxOffset = 1 << 62

// parseIndexPayload decodes and bounds-checks one payload. Structural
// consistency (tiling, count sums) is checked by validate.
func parseIndexPayload(p []byte) (*traceIndex, error) {
	c := &byteCursor{p: p}
	if len(p) == 0 || p[0] < indexFormatV1 || p[0] > indexFormat {
		return nil, fmt.Errorf("trace: index: unknown payload format")
	}
	c.i = 1
	idx := &traceIndex{format: int(p[0])}
	var err error
	if idx.accesses, err = c.uvarint("total accesses", maxOffset); err != nil {
		return nil, err
	}
	nregions, err := c.uvarint("region count", 2*MaxPhaseIndex+2)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nregions; i++ {
		var r layoutRegion
		for _, f := range []struct {
			what string
			max  uint64
			dst  *uint64
		}{
			{"region offset", maxOffset, &r.off},
			{"region length", maxOffset, &r.length},
			{"region symbol count", maxOffset, &r.syms},
			{"region object count", maxOffset, &r.objs},
			{"region symbol state", 1 << 62, &r.meta.symAddr},
			{"region object state", 1 << 62, &r.meta.objAddr},
			{"region seq state", 1 << 62, &r.meta.objSeq},
		} {
			if *f.dst, err = c.uvarint(f.what, f.max); err != nil {
				return nil, err
			}
		}
		if idx.hasCRC() {
			crc, err := c.uvarint("region checksum", 1<<32-1)
			if err != nil {
				return nil, err
			}
			r.crc = uint32(crc)
		}
		idx.regions = append(idx.regions, r)
	}
	nsegs, err := c.uvarint("segment count", MaxPhaseIndex+1)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nsegs; i++ {
		var s indexSegment
		var phase uint64
		for _, f := range []struct {
			what string
			max  uint64
			dst  *uint64
		}{
			{"segment phase", MaxPhaseIndex, &phase},
			{"segment offset", maxOffset, &s.off},
			{"segment length", maxOffset, &s.length},
			{"segment accesses", maxOffset, &s.accesses},
			{"segment max size", 1<<16 - 1, &s.maxSize},
			{"segment min addr", 1 << 62, &s.addrMin},
			{"segment max addr", 1 << 62, &s.addrMax},
			{"segment symbol state", 1 << 62, &s.meta.symAddr},
			{"segment object state", 1 << 62, &s.meta.objAddr},
			{"segment seq state", 1 << 62, &s.meta.objSeq},
		} {
			if *f.dst, err = c.uvarint(f.what, f.max); err != nil {
				return nil, err
			}
		}
		s.phase = int(phase)
		if idx.hasCRC() {
			crc, err := c.uvarint("segment checksum", 1<<32-1)
			if err != nil {
				return nil, err
			}
			s.crc = uint32(crc)
		}
		nthreads, err := c.uvarint("segment thread count", MaxThreadID+1)
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nthreads; j++ {
			var t segThread
			var tid uint64
			for _, f := range []struct {
				what string
				max  uint64
				dst  *uint64
			}{
				{"thread id", MaxThreadID, &tid},
				{"thread accesses", maxOffset, &t.accesses},
				{"thread addr state", 1 << 62, &t.state.addr},
				{"thread ip state", MaxInstrs, &t.state.ip},
				{"thread size state", 1<<16 - 1, &t.state.size},
				{"thread lat state", 1<<32 - 1, &t.state.lat},
				{"thread phase state", MaxPhaseIndex, &t.state.phase},
			} {
				if *f.dst, err = c.uvarint(f.what, f.max); err != nil {
					return nil, err
				}
			}
			t.tid = mem.ThreadID(tid)
			s.threads = append(s.threads, t)
		}
		if idx.format >= indexFormat {
			if s.blocks, err = c.blocks(); err != nil {
				return nil, err
			}
		}
		idx.segs = append(idx.segs, s)
	}
	if c.i != len(p) {
		return nil, fmt.Errorf("trace: index: %d trailing payload bytes", len(p)-c.i)
	}
	return idx, nil
}

// blocks decodes one segment's block list (format 3). Every entry
// consumes payload bytes, so the counts cannot outgrow the payload.
func (c *byteCursor) blocks() ([]indexBlock, error) {
	nblocks, err := c.uvarint("block count", uint64(len(c.p)))
	if err != nil {
		return nil, err
	}
	var blocks []indexBlock
	for i := uint64(0); i < nblocks; i++ {
		var b indexBlock
		if b.off, err = c.uvarint("block offset", maxOffset); err != nil {
			return nil, err
		}
		if b.length, err = c.uvarint("block length", maxOffset); err != nil {
			return nil, err
		}
		nspans, err := c.uvarint("span count", MaxThreadID+1)
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nspans; j++ {
			var sp indexSpan
			var tid, crc uint64
			for _, f := range []struct {
				what string
				max  uint64
				dst  *uint64
			}{
				{"span thread id", MaxThreadID, &tid},
				{"span offset", maxOffset, &sp.off},
				{"span length", maxOffset, &sp.length},
				{"span checksum", 1<<32 - 1, &crc},
			} {
				if *f.dst, err = c.uvarint(f.what, f.max); err != nil {
					return nil, err
				}
			}
			sp.tid, sp.crc = mem.ThreadID(tid), uint32(crc)
			b.spans = append(b.spans, sp)
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// validate checks the parsed index's structural claims against the
// file: regions and segments must tile [dataStart, indexOff) exactly,
// in order, without overlap; counts must be mutually consistent.
func (idx *traceIndex) validate(dataStart, indexOff uint64) error {
	pos := dataStart
	ri, si := 0, 0
	for ri < len(idx.regions) || si < len(idx.segs) {
		switch {
		case ri < len(idx.regions) && idx.regions[ri].off == pos:
			r := &idx.regions[ri]
			if r.length == 0 || r.length > indexOff-pos {
				return fmt.Errorf("trace: index: region at %d has bad length %d", pos, r.length)
			}
			pos += r.length
			ri++
		case si < len(idx.segs) && idx.segs[si].off == pos:
			s := &idx.segs[si]
			if s.length == 0 || s.length > indexOff-pos {
				return fmt.Errorf("trace: index: segment at %d has bad length %d", pos, s.length)
			}
			pos += s.length
			si++
		default:
			return fmt.Errorf("trace: index: spans are overlapping, out of order, or leave a gap at offset %d", pos)
		}
	}
	if pos != indexOff {
		return fmt.Errorf("trace: index: spans end at %d, want %d", pos, indexOff)
	}
	// Access claims size replay's operation lists, so they are bounded
	// before anything sums them: a segment's claim by its byte length
	// (the tiling above bounds the lengths' sum by the file size, so the
	// segments' total cannot wrap), and each thread's claim by what its
	// segment has left, so the threads' sum cannot wrap either.
	phases := make(map[int]bool, len(idx.segs))
	var total uint64
	for i := range idx.segs {
		s := &idx.segs[i]
		if phases[s.phase] {
			return fmt.Errorf("trace: index: phase %d indexed twice", s.phase)
		}
		phases[s.phase] = true
		if s.accesses > s.length/minAccessRecord {
			return fmt.Errorf("trace: index: phase %d claims %d accesses in a %d-byte segment",
				s.phase, s.accesses, s.length)
		}
		var segSum uint64
		for j := range s.threads {
			t := &s.threads[j]
			if j > 0 && t.tid <= s.threads[j-1].tid {
				return fmt.Errorf("trace: index: phase %d thread list not strictly ascending", s.phase)
			}
			if left := s.accesses - segSum; t.accesses > left {
				return fmt.Errorf("trace: index: phase %d thread %d claims %d accesses, but its segment has %d left",
					s.phase, t.tid, t.accesses, left)
			}
			segSum += t.accesses
		}
		if segSum != s.accesses {
			return fmt.Errorf("trace: index: phase %d thread accesses sum to %d, segment claims %d",
				s.phase, segSum, s.accesses)
		}
		if s.accesses > 0 && s.addrMin > s.addrMax {
			return fmt.Errorf("trace: index: phase %d address bounds inverted", s.phase)
		}
		if idx.format >= indexFormat {
			if err := s.validateBlocks(); err != nil {
				return err
			}
		}
		total += s.accesses
	}
	if total != idx.accesses {
		return fmt.Errorf("trace: index: segments sum to %d accesses, index claims %d", total, idx.accesses)
	}
	return nil
}

// validateBlocks checks a format-3 segment's blocks: past a non-empty
// head they tile the segment in order, each is tiled by its spans in
// strictly ascending thread order, every span belongs to a thread the
// segment lists, and every listed thread has a span.
func (s *indexSegment) validateBlocks() error {
	end := s.off + s.length
	pos := end
	if len(s.blocks) > 0 {
		pos = s.blocks[0].off
	}
	if pos <= s.off || pos > end {
		return fmt.Errorf("trace: index: phase %d segment head is empty or outside the segment", s.phase)
	}
	spanned := make([]bool, len(s.threads))
	for _, b := range s.blocks {
		if b.off != pos || b.length == 0 || b.length > end-pos {
			return fmt.Errorf("trace: index: phase %d block at %d does not tile its segment (length %d)", s.phase, b.off, b.length)
		}
		spos := b.off
		for k, sp := range b.spans {
			if k > 0 && sp.tid <= b.spans[k-1].tid {
				return fmt.Errorf("trace: index: phase %d block at %d: spans not in ascending thread order", s.phase, b.off)
			}
			if sp.off != spos || sp.length == 0 || sp.length > b.off+b.length-spos {
				return fmt.Errorf("trace: index: phase %d block at %d: spans overlap or leave a gap at %d", s.phase, b.off, spos)
			}
			ti := sort.Search(len(s.threads), func(i int) bool { return s.threads[i].tid >= sp.tid })
			if ti == len(s.threads) || s.threads[ti].tid != sp.tid {
				return fmt.Errorf("trace: index: phase %d block at %d has a span for unlisted thread %d", s.phase, b.off, sp.tid)
			}
			spanned[ti] = true
			spos += sp.length
		}
		if spos != b.off+b.length {
			return fmt.Errorf("trace: index: phase %d block at %d: spans end at %d, block at %d", s.phase, b.off, spos, b.off+b.length)
		}
		pos += b.length
	}
	if pos != end {
		return fmt.Errorf("trace: index: phase %d blocks end at %d, segment at %d", s.phase, pos, end)
	}
	for i, ok := range spanned {
		if !ok {
			return fmt.Errorf("trace: index: phase %d lists thread %d, which has no span", s.phase, s.threads[i].tid)
		}
	}
	return nil
}

// skipIndexBlock consumes the index payload and footer from the
// sequential decoder's position (the byte after the kindIndexBlock
// kind) and requires a clean end of stream.
func (d *binaryDecoder) skipIndexBlock() error {
	n, err := d.uvarint("index payload length", maxIndexPayload)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(io.Discard, d.br, int64(n)); err != nil {
		return fmt.Errorf("trace: truncated index payload: %w", err)
	}
	var foot [footerSize]byte
	if _, err := io.ReadFull(d.br, foot[:]); err != nil {
		return fmt.Errorf("trace: truncated index footer: %w", err)
	}
	if !bytes.Equal(foot[8:], footerMagic) {
		return fmt.Errorf("trace: bad index footer magic %q", foot[8:])
	}
	if _, err := d.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("trace: data after index footer")
	}
	return nil
}

// readIndexAt locates, parses and validates the index of a binary v3
// trace via random access. ErrNoIndex (wrapped) reports a well-formed
// trace that simply has no index; other errors report corruption.
func readIndexAt(r io.ReaderAt, size int64) (*traceIndex, error) {
	magic := binaryMagicFor(BinaryV3)
	head := make([]byte, len(magic))
	if size < int64(len(magic)) {
		return nil, fmt.Errorf("trace: file too short for a binary trace")
	}
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if !bytes.Equal(head, magic) {
		return nil, fmt.Errorf("%w (not a binary v3 trace)", ErrNoIndex)
	}
	if size < int64(len(magic)+footerSize+2) {
		return nil, fmt.Errorf("%w (no footer)", ErrNoIndex)
	}
	var foot [footerSize]byte
	if _, err := r.ReadAt(foot[:], size-footerSize); err != nil {
		return nil, fmt.Errorf("trace: reading index footer: %w", err)
	}
	if !bytes.Equal(foot[8:], footerMagic) {
		return nil, fmt.Errorf("%w (no footer)", ErrNoIndex)
	}
	indexOff := binary.LittleEndian.Uint64(foot[:8])
	if indexOff < uint64(len(magic)) || indexOff >= uint64(size-footerSize) {
		return nil, fmt.Errorf("trace: index offset %d outside the file", indexOff)
	}
	blockLen := uint64(size-footerSize) - indexOff
	if blockLen > maxIndexPayload+16 {
		return nil, fmt.Errorf("trace: index block length %d exceeds limit", blockLen)
	}
	block := make([]byte, blockLen)
	if _, err := r.ReadAt(block, int64(indexOff)); err != nil {
		return nil, fmt.Errorf("trace: reading index block: %w", err)
	}
	if block[0] != kindIndexBlock {
		return nil, fmt.Errorf("trace: index offset does not point at an index record")
	}
	payloadLen, n := binary.Uvarint(block[1:])
	if n <= 0 {
		return nil, fmt.Errorf("trace: index: truncated payload length")
	}
	if uint64(1+n)+payloadLen != blockLen {
		return nil, fmt.Errorf("trace: index record length inconsistent with footer offset")
	}
	idx, err := parseIndexPayload(block[1+n:])
	if err != nil {
		return nil, err
	}
	if err := idx.validate(uint64(len(magic)), indexOff); err != nil {
		return nil, err
	}
	return idx, nil
}

// FileIsIndexed reports whether path looks like an indexed binary v3
// trace (v3 magic plus a valid footer). It reads only the file's head
// and tail; full index validation happens at OpenStream.
func FileIsIndexed(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false
	}
	magic := binaryMagicFor(BinaryV3)
	if st.Size() < int64(len(magic)+footerSize+2) {
		return false
	}
	head := make([]byte, len(magic))
	var foot [footerSize]byte
	if _, err := f.ReadAt(head, 0); err != nil || !bytes.Equal(head, magic) {
		return false
	}
	if _, err := f.ReadAt(foot[:], st.Size()-footerSize); err != nil {
		return false
	}
	return bytes.Equal(foot[8:], footerMagic)
}

// crcReader computes a running CRC32C over everything read through it,
// so span verification rides along with decoding instead of re-reading
// the bytes.
type crcReader struct {
	r   io.Reader
	crc uint32
	eof bool // r has reported io.EOF: the whole span went through crc
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	if err == io.EOF {
		c.eof = true
	}
	return n, err
}

// verifySpanCRC drains cr to the span's end and compares the checksum.
// On mismatch it returns a CorruptPayloadError — preferred over cause
// (the decode error, if any), since a failed checksum explains why
// decoding went wrong. With verification disabled (format-1 index) or a
// matching checksum, cause passes through.
func verifySpanCRC(path string, phase int, off uint64, cr *crcReader, want uint32, enabled bool, cause error) error {
	if !enabled {
		return cause
	}
	if !cr.eof {
		io.Copy(io.Discard, cr)
	}
	if cr.crc != want {
		return &CorruptPayloadError{Path: path, Phase: phase, Thread: -1, Off: off, Want: want, Got: cr.crc}
	}
	return cause
}

// maxSpanBuffer caps a span decoder's read buffer.
const maxSpanBuffer = 1 << 16

// newSeededDecoder returns a record decoder over the span bytes of r,
// whose delta-prediction context is preloaded from index snapshots, for
// decoding a segment or region from the middle of a v3 file. The read
// buffer is sized to the span (bufio keeps its own 16-byte floor), so
// opening a small span never costs a full-size buffer.
func newSeededDecoder(r io.Reader, span uint64, threads []segThread, meta metaState) *binaryDecoder {
	d := &binaryDecoder{
		br:      bufio.NewReaderSize(r, int(min(span, maxSpanBuffer))),
		version: BinaryV3,
		meta:    meta,
	}
	for _, t := range threads {
		*d.prev.at(t.tid) = t.state
	}
	return d
}
