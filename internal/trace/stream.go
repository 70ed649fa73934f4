// Out-of-core streaming replay.
//
// StreamReplay is the bounded-memory counterpart of Replay: instead of
// decoding the whole trace into per-thread operation lists up front, it
// uses the v3 index (index.go) to read each thread's records as the
// thread runs. Every thread body reads only its own spans of its phase —
// one per block the thread has records in — through the one file handle
// all replays of the trace share, verifies each span's checksum before
// decoding a record of it, and decodes the records straight into the
// engine's operation stream. Decoding thus runs beside the engine, on
// the engine's own per-thread buffering, in the order the engine asks
// for it, and a body holds one span at a time: memory is bounded per
// thread by the span size however long a phase or the trace is.
//
// Format-1 and format-2 indexes describe interleaved segments without
// blocks. There every thread's span is the whole segment: each body
// decodes all of it, checks every thread's records and skips the
// others'. That path is correct and bounded, only slower; `cheetah
// -index` rewrites such a trace in the current format.
//
// The reconstructed program is identical to Replay.Program()'s — same
// thread ids, same operation streams, same pooling — so the detection
// report is byte-identical to full in-memory replay (proven by
// stream_equiv_test.go). ProgramRange additionally replays only a
// contiguous phase range, which ranged `trace:<path>@lo-hi` workloads
// use.
package trace

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/symtab"
)

// streamSeg is the open-time view of one indexed phase: the metadata
// needed to build program structure without touching the segment again.
type streamSeg struct {
	name     string
	parallel bool
	tids     []mem.ThreadID // ascending; mirrors the index thread list
	// spans lists each thread's spans (format 3), parallel to tids, in
	// file order.
	spans [][]indexSpan
	// whole is the segment itself, the one span every body of an
	// interleaved (format-1 or format-2) segment reads.
	whole []indexSpan
}

// segGeom keys the foreign-address prescan cache: the prescan result
// depends only on which addresses fall outside the simulated segments,
// i.e. on the heap and globals geometry.
type segGeom struct {
	heapBase, heapLimit mem.Addr
	symBase, symLimit   mem.Addr
}

// streamShared is the per-file state every StreamReplay of one trace
// shares: the open file, the validated index and open-time metadata. It
// holds no record data, so several cells replaying the same giant trace
// concurrently cost one metadata copy, not N. Its readers use ReadAt
// only, which is safe concurrently; the handle closes when the last
// user drops the value.
type streamShared struct {
	path  string
	f     *os.File
	size  int64
	mtime time.Time
	idx   *traceIndex

	name             string
	cores            int
	notes            []string
	symbols, objects uint64
	segs             []streamSeg
	phaseSeg         map[int]int // phase index -> position in idx.segs
	maxPhase         int
	// appearances counts, per thread id, the parallel phases the thread
	// has records in; >1 marks a pooled worker (same rule as Replay).
	appearances map[mem.ThreadID]int

	mu sync.Mutex
	// prescans caches sorted foreign line indices per memory geometry.
	prescans map[segGeom][]uint64
}

// streamCache shares streamShared values across opens of the same path,
// keyed by path and invalidated on size/mtime change.
var streamCache = struct {
	sync.Mutex
	m    map[string]*streamCacheEntry
	tick uint64
}{m: make(map[string]*streamCacheEntry)}

type streamCacheEntry struct {
	sh      *streamShared
	lastUse uint64
}

// maxSharedTraces bounds the metadata cache; least-recently-used
// entries beyond it are dropped.
const maxSharedTraces = 16

func sharedFor(path string) (*streamShared, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	streamCache.Lock()
	streamCache.tick++
	if e := streamCache.m[path]; e != nil && e.sh.size == st.Size() && e.sh.mtime.Equal(st.ModTime()) {
		e.lastUse = streamCache.tick
		sh := e.sh
		streamCache.Unlock()
		return sh, nil
	}
	streamCache.Unlock()

	sh, err := openShared(path)
	if err != nil {
		return nil, err
	}
	streamCache.Lock()
	streamCache.tick++
	streamCache.m[path] = &streamCacheEntry{sh: sh, lastUse: streamCache.tick}
	for len(streamCache.m) > maxSharedTraces {
		oldPath, oldUse := "", ^uint64(0)
		for p, e := range streamCache.m {
			if e.lastUse < oldUse {
				oldPath, oldUse = p, e.lastUse
			}
		}
		delete(streamCache.m, oldPath)
	}
	streamCache.Unlock()
	return sh, nil
}

// openShared opens a trace and reads and cross-checks its index and
// open-time metadata: the layout regions are decoded once (verifying
// the indexed record counts and capturing the program identity), and
// each segment's first record is decoded to confirm it is the indexed
// phase and to capture its name and parallelism. A format-3 segment's
// head must hold that record alone and is verified against its
// checksum here; the rest of the segment is its threads' spans.
func openShared(path string) (_ *streamShared, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	idx, err := readIndexAt(f, st.Size())
	if err != nil {
		return nil, err
	}
	sh := &streamShared{
		path: path, f: f, size: st.Size(), mtime: st.ModTime(), idx: idx,
		phaseSeg:    make(map[int]int, len(idx.segs)),
		maxPhase:    -1,
		appearances: make(map[mem.ThreadID]int),
		prescans:    make(map[segGeom][]uint64),
	}

	sawProgram := false
	for ri := range idx.regions {
		r := &idx.regions[ri]
		cr := &crcReader{r: io.NewSectionReader(f, int64(r.off), int64(r.length))}
		d := newSeededDecoder(cr, r.length, nil, r.meta)
		var nsyms, nobjs uint64
		for {
			ev, err := d.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, verifySpanCRC(path, -1, r.off, cr, r.crc, idx.hasCRC(), err)
			}
			switch ev.Kind {
			case KindProgram:
				if sawProgram {
					return nil, fmt.Errorf("trace: duplicate #program record")
				}
				sawProgram = true
				sh.name, sh.cores = ev.Name, ev.Cores
			case KindSymbol:
				nsyms++
			case KindObject:
				nobjs++
			case KindNote:
				sh.notes = append(sh.notes, ev.Name)
			default:
				return nil, fmt.Errorf("trace: index: layout region at %d contains a kind-%d record", r.off, ev.Kind)
			}
		}
		if err := verifySpanCRC(path, -1, r.off, cr, r.crc, idx.hasCRC(), nil); err != nil {
			return nil, err
		}
		if nsyms != r.syms || nobjs != r.objs {
			return nil, fmt.Errorf("trace: index: region at %d claims %d symbols / %d objects, stream has %d / %d",
				r.off, r.syms, r.objs, nsyms, nobjs)
		}
		sh.symbols += nsyms
		sh.objects += nobjs
	}
	if !sawProgram {
		return nil, fmt.Errorf("trace: missing #program record")
	}
	if sh.cores == 0 {
		sh.cores = 1
	}

	blocked := idx.format >= indexFormat
	sh.segs = make([]streamSeg, len(idx.segs))
	for si := range idx.segs {
		seg := &idx.segs[si]
		if seg.maxSize > 255 {
			return nil, fmt.Errorf("trace: access size %d unsupported (max 255)", seg.maxSize)
		}
		cr := &crcReader{r: io.NewSectionReader(f, int64(seg.off), int64(seg.head()))}
		d := newSeededDecoder(cr, seg.head(), seg.threads, seg.meta)
		ev, err := d.next()
		if err != nil {
			err = fmt.Errorf("trace: index: segment for phase %d: %w", seg.phase, err)
		} else if ev.Kind != KindPhase || ev.Phase != seg.phase {
			err = fmt.Errorf("trace: index: segment for phase %d does not start at its phase record", seg.phase)
		} else if _, end := d.next(); blocked && end != io.EOF {
			err = fmt.Errorf("trace: index: phase %d segment head holds more than its phase record", seg.phase)
		}
		if blocked {
			err = verifySpanCRC(path, seg.phase, seg.off, cr, seg.crc, true, err)
		}
		if err != nil {
			return nil, err
		}
		ss := &sh.segs[si]
		ss.name, ss.parallel = ev.Name, ev.Parallel
		ss.tids = make([]mem.ThreadID, len(seg.threads))
		for i, t := range seg.threads {
			ss.tids[i] = t.tid
			if !ss.parallel && t.tid != mem.MainThread {
				return nil, fmt.Errorf("trace: serial phase %d has records for thread %d", seg.phase, t.tid)
			}
		}
		if blocked {
			ss.spans = make([][]indexSpan, len(ss.tids))
			for _, b := range seg.blocks {
				for _, sp := range b.spans {
					ti := sort.Search(len(ss.tids), func(i int) bool { return ss.tids[i] >= sp.tid })
					ss.spans[ti] = append(ss.spans[ti], sp)
				}
			}
		} else {
			ss.whole = []indexSpan{{tid: -1, off: seg.off, length: seg.length, crc: seg.crc}}
		}
		sh.phaseSeg[seg.phase] = si
		if seg.phase > sh.maxPhase {
			sh.maxPhase = seg.phase
		}
		if ss.parallel {
			for _, tid := range ss.tids {
				sh.appearances[tid]++
			}
		}
	}
	return sh, nil
}

// restoreLayout replays the layout regions in stream order into the
// system's heap and symbol table — exactly what Replay.Prepare restores,
// without retaining anything.
func (sh *streamShared) restoreLayout(h *heap.Heap, syms *symtab.Table) error {
	for ri := range sh.idx.regions {
		r := &sh.idx.regions[ri]
		d := newSeededDecoder(io.NewSectionReader(sh.f, int64(r.off), int64(r.length)), r.length, nil, r.meta)
		for {
			ev, err := d.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			switch ev.Kind {
			case KindProgram: // identity, captured at open
			case KindSymbol:
				if err := syms.Restore(symtab.Symbol{Name: ev.Name, Addr: ev.Addr, Size: ev.Size}); err != nil {
					return err
				}
			case KindObject:
				if err := h.Restore(heap.Object{
					Addr: ev.Addr, Size: ev.Size, ClassSize: ev.Class,
					Thread: ev.TID, Seq: ev.Seq, Live: ev.Live, Stack: ev.Stack,
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// covered returns the merged address intervals the heap and globals
// segments cover under geom.
func (g segGeom) covered() [][2]mem.Addr {
	iv := [][2]mem.Addr{{g.heapBase, g.heapLimit}, {g.symBase, g.symLimit}}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	out := iv[:1]
	if iv[1][0] <= out[0][1] { // adjacent or overlapping: merge
		if iv[1][1] > out[0][1] {
			out[0][1] = iv[1][1]
		}
	} else {
		out = iv
	}
	return out
}

// inOneInterval reports whether [lo, hi] lies inside a single covered
// interval — the proof that every address between them is in-segment.
func inOneInterval(iv [][2]mem.Addr, lo, hi mem.Addr) bool {
	for _, r := range iv {
		if lo >= r[0] && hi < r[1] {
			return true
		}
	}
	return false
}

// foreignLines returns the sorted cache-line indices of every access
// address outside the heap and globals segments — the input Replay's
// synthesize computes from its in-memory op lists. Segments whose
// indexed [addrMin, addrMax] provably lies in-segment are skipped
// without touching disk; the rest are scanned once, and the result is
// cached per geometry (recorder-written traces skip everything, so
// replaying them never pays a prescan pass).
func (sh *streamShared) foreignLines(h *heap.Heap, syms *symtab.Table) ([]uint64, error) {
	geom := segGeom{h.Base(), h.Limit(), syms.Base(), syms.Limit()}
	sh.mu.Lock()
	lines, ok := sh.prescans[geom]
	sh.mu.Unlock()
	if ok {
		return lines, nil
	}

	iv := geom.covered()
	var scan []int
	for si := range sh.idx.segs {
		seg := &sh.idx.segs[si]
		if seg.accesses == 0 {
			continue
		}
		if !inOneInterval(iv, mem.Addr(seg.addrMin), mem.Addr(seg.addrMax)) {
			scan = append(scan, si)
		}
	}
	lines = []uint64{}
	if len(scan) > 0 {
		seen := make(map[uint64]bool)
		for _, si := range scan {
			seg := &sh.idx.segs[si]
			d := newSeededDecoder(io.NewSectionReader(sh.f, int64(seg.off), int64(seg.length)), seg.length, seg.threads, seg.meta)
			var ev Event
			for {
				err := d.nextInto(&ev)
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				if ev.Kind != KindAccess || h.Contains(ev.Addr) || syms.Contains(ev.Addr) {
					continue
				}
				if line := ev.Addr.Line(); !seen[line] {
					seen[line] = true
					lines = append(lines, line)
				}
			}
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	}
	sh.mu.Lock()
	sh.prescans[geom] = lines
	sh.mu.Unlock()
	return lines, nil
}

// StreamReplay replays an indexed trace with bounded memory: Prepare
// restores the layout exactly as Replay.Prepare does, and each thread
// body of the program reads its own records as it runs.
type StreamReplay struct {
	sh *streamShared

	// Name, Cores, Accesses and Notes mirror Replay's fields.
	Name     string
	Cores    int
	Accesses uint64
	Notes    []string

	// runs remaps foreign addresses, identical to full replay's
	// synthesized runs (same sites in the same order).
	runs     []lineRun
	prepared bool

	mu sync.Mutex
	// loads counts segments replayed and verified; maxWindowOps is the
	// most accesses one span held for its thread — the bounded-memory
	// evidence tests assert on.
	loads        int
	maxWindowOps uint64
}

// OpenStream opens an indexed binary v3 trace for streaming replay. It
// reads only the index and layout metadata (lazily shared across opens
// of the same file); the access records stay on disk until a thread
// body reaches them. Non-indexed traces fail here — use ReadFile.
func OpenStream(path string) (*StreamReplay, error) {
	sh, err := sharedFor(path)
	if err != nil {
		return nil, err
	}
	return &StreamReplay{
		sh: sh, Name: sh.name, Cores: sh.cores, Accesses: sh.idx.accesses,
		Notes: sh.notes,
	}, nil
}

// Prepare installs the trace's memory layout into the system, exactly
// as Replay.Prepare: symbols and objects restore at their recorded
// addresses, and foreign out-of-segment address runs are synthesized
// into fresh heap objects with `trace:N` call sites. Must run before
// Program or ProgramRange.
func (s *StreamReplay) Prepare(h *heap.Heap, syms *symtab.Table) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trace: preparing replay: %v", r)
		}
	}()
	if err := s.sh.restoreLayout(h, syms); err != nil {
		return err
	}
	lines, err := s.sh.foreignLines(h, syms)
	if err != nil {
		return err
	}
	if len(lines) > 0 {
		// Copy: lineRuns sorts in place and the cached slice is shared.
		runs := lineRuns(append([]uint64(nil), lines...))
		for i := range runs {
			site := heap.Stack(heap.Frame{Func: "trace", File: "trace", Line: i + 1})
			runs[i].mappedTo = h.Malloc(mem.MainThread, runs[i].bytes, site)
		}
		s.runs = runs
	}
	s.prepared = true
	return nil
}

// spanPass is one thread body's pass over its spans of one segment.
type spanPass struct {
	path string
	seg  *indexSegment
	runs []lineRun
	// t receives the thread's operations; nil only checks the records.
	t *exec.T
	// ti is the thread's position in seg.threads and tid its id; a serial
	// phase without records replays no thread (-1 both).
	ti  int
	tid mem.ThreadID
	// whole marks an interleaved segment, read whole: every thread's
	// records are decoded and checked, counts tallies them per position
	// in seg.threads (index maps an id to its position plus one), and
	// total sums them.
	whole  bool
	counts []uint64
	index  tidTable[int32]
	total  uint64

	d   binaryDecoder
	sec io.SectionReader
	cr  crcReader
	rt  replayThread
	// n counts the thread's accesses; spanMax is the most one span held.
	n, spanMax uint64
}

// replaySpans replays thread ti of segment si (-1: a serial phase with
// no records) through t, or with t nil makes every check the replay
// would. It reads the thread's spans — the whole segment when the index
// has no blocks — through the shared file handle, checking each span's
// checksum before decoding any of its records, and issues each access
// as it decodes it. Every rule the sequential decoder and full replay
// enforce applies; a record or count the index does not account for
// fails the pass once the spans are read.
func (s *StreamReplay) replaySpans(t *exec.T, si, ti int) error {
	sh := s.sh
	seg := &sh.idx.segs[si]
	ss := &sh.segs[si]
	r := &spanPass{path: sh.path, seg: seg, runs: s.runs, t: t, ti: ti, tid: -1, whole: ss.whole != nil}
	spans := ss.whole
	if ti >= 0 {
		r.tid = seg.threads[ti].tid
		if !r.whole {
			spans = ss.spans[ti]
		}
	}
	// The buffer fits the thread's longest span, up to maxSpanBuffer: a
	// span that fits — every span of a block the IndexedEncoder writes —
	// is read once, a longer one twice (checksum, then records), so a
	// body's memory never depends on how long its phase is.
	var bufSize uint64
	for _, sp := range spans {
		bufSize = max(bufSize, sp.length)
	}
	bufSize = min(bufSize, maxSpanBuffer)
	r.d = binaryDecoder{br: bufio.NewReaderSize(nil, int(bufSize)), version: BinaryV3, meta: seg.meta}
	if r.whole {
		r.counts = make([]uint64, len(seg.threads))
		for i, th := range seg.threads {
			*r.d.prev.at(th.tid) = th.state
			*r.index.at(th.tid) = int32(i + 1)
		}
	} else if ti >= 0 {
		*r.d.prev.at(r.tid) = seg.threads[ti].state
	}
	for _, sp := range spans {
		if err := r.span(sh.f, sp, sh.idx.hasCRC()); err != nil {
			return err
		}
	}
	if err := r.finish(); err != nil {
		return err
	}
	if t != nil {
		s.replayed(si, ti, r)
	}
	return nil
}

// span verifies one span (when the index is checksummed) and replays
// its records.
func (r *spanPass) span(f io.ReaderAt, sp indexSpan, checked bool) error {
	r.sec = *io.NewSectionReader(f, int64(sp.off), int64(sp.length))
	if checked {
		if err := r.verify(sp); err != nil {
			return err
		}
	} else {
		r.d.reset(&r.sec)
	}
	var ev Event
	if r.whole {
		if err := r.d.nextInto(&ev); err != nil {
			return err
		}
		if ev.Kind != KindPhase || ev.Phase != r.seg.phase {
			return fmt.Errorf("trace: segment for phase %d does not start at its phase record", r.seg.phase)
		}
	}
	n := r.n
	defer func() { r.spanMax = max(r.spanMax, r.n-n) }()
	for {
		if tid, write, st := r.d.nextAccess(); st != nil {
			if err := r.access(tid, write, st.addr, st.ip, st.size, st.phase); err != nil {
				return err
			}
			continue
		}
		err := r.d.nextInto(&ev)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch ev.Kind {
		case KindAccess:
			err = r.access(ev.TID, ev.Write, uint64(ev.Addr), ev.IP, ev.Size, uint64(ev.Phase))
		case KindThreadEnd:
			var own bool
			if own, err = r.claim(ev.TID, uint64(ev.Phase)); own {
				r.rt.endInstrs, r.rt.sawEnd = ev.Instrs, true
			}
		default:
			err = fmt.Errorf("trace: phase %d segment contains a kind-%d record", r.seg.phase, ev.Kind)
		}
		if err != nil {
			return err
		}
	}
}

// verify checks sp's checksum, leaving the decoder at the span's first
// byte. A span that fits the read buffer is read once; a longer one (a
// whole segment) streams through the checksum and is then read again.
func (r *spanPass) verify(sp indexSpan) error {
	var got uint32
	if sp.length <= uint64(r.d.br.Size()) {
		r.d.reset(&r.sec)
		b, err := r.d.br.Peek(int(sp.length))
		if err != nil {
			return fmt.Errorf("trace: phase %d: reading %d bytes at offset %d: %w", r.seg.phase, sp.length, sp.off, err)
		}
		got = crc32.Checksum(b, castagnoli)
	} else {
		r.cr = crcReader{r: &r.sec}
		r.d.reset(&r.cr)
		for {
			if _, err := r.d.br.Discard(r.d.br.Size()); err != nil {
				break
			}
		}
		got = r.cr.crc
		r.sec.Seek(0, io.SeekStart)
		r.d.reset(&r.sec)
	}
	if got != sp.crc {
		thread := -1
		if !r.whole {
			thread = int(r.tid)
		}
		return &CorruptPayloadError{Path: r.path, Phase: r.seg.phase, Thread: thread, Off: sp.off, Want: sp.crc, Got: got}
	}
	return nil
}

// claim checks that a record of thread tid and phase belongs where it
// was read: it carries the segment's phase, and its thread is the
// span's (a block span) or one the segment lists (a whole segment). It
// reports whether the record is the replayed thread's.
func (r *spanPass) claim(tid mem.ThreadID, phase uint64) (bool, error) {
	if phase != uint64(r.seg.phase) {
		return false, fmt.Errorf("trace: phase %d segment contains a record for phase %d", r.seg.phase, phase)
	}
	if !r.whole {
		if tid != r.tid {
			return false, fmt.Errorf("trace: phase %d span of thread %d holds a record for thread %d", r.seg.phase, r.tid, tid)
		}
		return true, nil
	}
	if *r.index.at(tid) == 0 {
		return false, fmt.Errorf("trace: phase %d segment has records for unindexed thread %d", r.seg.phase, tid)
	}
	return tid == r.tid, nil
}

// access checks one access record and, when it is the replayed
// thread's, issues it after its compute gap.
func (r *spanPass) access(tid mem.ThreadID, write bool, addr, ip, size, phase uint64) error {
	own, err := r.claim(tid, phase)
	if err != nil {
		return err
	}
	if size > 255 {
		return fmt.Errorf("trace: access size %d unsupported (max 255)", size)
	}
	if r.whole {
		r.counts[*r.index.at(tid)-1]++
		r.total++
	}
	if !own {
		return nil
	}
	r.n++
	gap := r.rt.gap(ip)
	if r.t != nil {
		a := mem.Addr(addr)
		if len(r.runs) > 0 {
			a = remapForeign(r.runs, a)
		}
		op := accessOp(gap, a, size, write)
		op.issue(r.t)
	}
	return nil
}

// finish checks the decoded counts against the index — every thread's
// when the segment was read whole, so each body of an interleaved phase
// fails the same way — and issues the thread's trailing compute.
func (r *spanPass) finish() error {
	seg := r.seg
	if r.whole {
		if r.total != seg.accesses {
			return fmt.Errorf("trace: phase %d segment has %d accesses, index claims %d", seg.phase, r.total, seg.accesses)
		}
		for i, th := range seg.threads {
			if r.counts[i] != th.accesses {
				return fmt.Errorf("trace: phase %d thread %d has %d accesses, index claims %d",
					seg.phase, th.tid, r.counts[i], th.accesses)
			}
		}
	} else if r.ti >= 0 && r.n != seg.threads[r.ti].accesses {
		return fmt.Errorf("trace: phase %d thread %d has %d accesses, index claims %d",
			seg.phase, r.tid, r.n, seg.threads[r.ti].accesses)
	}
	if r.t != nil && r.ti >= 0 {
		if n := r.rt.trailing(); n > 0 {
			r.t.Compute(int(n))
		}
	}
	return nil
}

// replayed records a body's verified pass: the phase's first body
// counts the segment as loaded.
func (s *StreamReplay) replayed(si, ti int, r *spanPass) {
	seg := &s.sh.idx.segs[si]
	first := ti <= 0
	s.mu.Lock()
	if first {
		s.loads++
	}
	s.maxWindowOps = max(s.maxWindowOps, r.spanMax)
	s.mu.Unlock()
	mWindowOps.Add(r.n)
	mWindowOpsMax.SetMax(int64(r.spanMax))
	if !first {
		return
	}
	mWindowLoads.Inc()
	if obs.TracingEnabled() {
		obs.Event("trace", "window-load", 0, map[string]any{
			"path": s.sh.path, "phase": seg.phase, "ops": seg.accesses,
		})
	}
}

// verifyPhase makes every check a replay of segment si makes, issuing
// nothing: it reads each thread's spans, or the interleaved segment
// once.
func (s *StreamReplay) verifyPhase(si int) error {
	ss := &s.sh.segs[si]
	if ss.whole != nil {
		return s.replaySpans(nil, si, -1)
	}
	for ti := range ss.tids {
		if err := s.replaySpans(nil, si, ti); err != nil {
			return err
		}
	}
	return nil
}

// streamBody replays thread ti of segment si (-1: a serial phase
// without records). It panics with the pass's failure, which Run
// re-raises as an *exec.BodyPanic.
func (s *StreamReplay) streamBody(si, ti int) exec.Body {
	return func(t *exec.T) {
		if err := s.replaySpans(t, si, ti); err != nil {
			panic(fmt.Sprintf("trace: streaming replay of %s: loading phase %d: %v",
				s.sh.path, s.sh.idx.segs[si].phase, err))
		}
	}
}

// Program reconstructs the full program; the result is structurally
// identical to Replay.Program()'s for the same trace, but its bodies
// stream their operations from disk phase by phase.
func (s *StreamReplay) Program() exec.Program {
	return s.ProgramRange(0, s.sh.maxPhase)
}

// ProgramRange reconstructs the program with only phases lo..hi
// (inclusive) populated; the rest become empty phases the engine skips
// without advancing the clock. Phase indices, thread ids and pooling
// are those of the full program, so a range replays exactly as that
// slice of the full run would on a fresh system.
func (s *StreamReplay) ProgramRange(lo, hi int) exec.Program {
	if !s.prepared {
		panic("trace: StreamReplay.Program called before Prepare")
	}
	prog := exec.Program{Name: s.Name}
	for idx := 0; idx <= s.sh.maxPhase; idx++ {
		si, ok := s.sh.phaseSeg[idx]
		if !ok || idx < lo || idx > hi {
			prog.Phases = append(prog.Phases, exec.Phase{})
			continue
		}
		ss := &s.sh.segs[si]
		name := ss.name
		if name == "" {
			name = fmt.Sprintf("phase%d", idx)
		}
		if !ss.parallel {
			// Open validated that a serial phase lists the main thread
			// alone, if any thread.
			prog.Phases = append(prog.Phases, exec.SerialPhase(name, s.streamBody(si, len(ss.tids)-1)))
			continue
		}
		pooled := false
		bodies := make([]exec.Body, 0, len(ss.tids))
		for ti, tid := range ss.tids {
			if s.sh.appearances[tid] > 1 {
				pooled = true
			}
			bodies = append(bodies, s.streamBody(si, ti))
		}
		prog.Phases = append(prog.Phases, exec.Phase{Name: name, Bodies: bodies, Pooled: pooled})
	}
	return prog
}

// MaxPhase returns the highest phase index in the trace.
func (s *StreamReplay) MaxPhase() int { return s.sh.maxPhase }

// WindowStats reports how many segments the replay read and verified
// and the most accesses one span held for its thread — the evidence
// that memory stays bounded by the block size rather than the phase or
// the whole trace.
func (s *StreamReplay) WindowStats() (loads int, maxOps uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads, s.maxWindowOps
}

// ValidateStream rehearses the whole streaming pipeline — index
// validation, layout restore against a scratch default layout, a full
// decode of every segment, program assembly — returning the error any
// stage would surface. The streaming counterpart of Validate.
func ValidateStream(path string) error {
	s, err := OpenStream(path)
	if err != nil {
		return err
	}
	if err := s.Prepare(heap.New(heap.Config{}), symtab.New(symtab.Config{})); err != nil {
		return err
	}
	for si := range s.sh.idx.segs {
		if err := s.verifyPhase(si); err != nil {
			return err
		}
	}
	s.Program()
	return nil
}
