// Out-of-core streaming replay.
//
// StreamReplay is the bounded-memory counterpart of Replay: instead of
// decoding the whole trace into per-thread operation lists up front, it
// uses the v3 index (index.go) to load one phase's records at a time.
// The engine runs phases strictly in order and completes every body of
// a phase before starting the next, so a window holding exactly one
// phase never thrashes: each phase's segment is read from disk once per
// replay, and peak memory is the largest single phase plus the layout,
// however long the trace is.
//
// The reconstructed program is identical to Replay.Program()'s — same
// thread ids, same operation streams, same pooling — so the detection
// report is byte-identical to full in-memory replay (proven by
// stream_equiv_test.go). ProgramRange additionally replays only a
// contiguous phase range, the unit of cross-worker trace sharding in
// internal/harness.
package trace

import (
	"fmt"
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
}

// segGeom keys the foreign-address prescan cache: the prescan result
// depends only on which addresses fall outside the simulated segments,
// i.e. on the heap and globals geometry.
type segGeom struct {
	heapBase, heapLimit mem.Addr
	symBase, symLimit   mem.Addr
}

// streamShared is the per-file state every StreamReplay of one trace
// shares: the validated index and open-time metadata. It holds no
// record data, so several cells replaying the same giant trace
// concurrently cost one metadata copy, not N.
type streamShared struct {
	path  string
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

// openShared reads and cross-checks a trace's index and open-time
// metadata: the layout regions are decoded once (verifying the indexed
// record counts and capturing the program identity), and each segment's
// first record is decoded to confirm it is the indexed phase and to
// capture its name and parallelism.
func openShared(path string) (*streamShared, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	idx, err := readIndexAt(f, st.Size())
	if err != nil {
		return nil, err
	}
	sh := &streamShared{
		path: path, size: st.Size(), mtime: st.ModTime(), idx: idx,
		phaseSeg:    make(map[int]int, len(idx.segs)),
		maxPhase:    -1,
		appearances: make(map[mem.ThreadID]int),
		prescans:    make(map[segGeom][]uint64),
	}

	sawProgram := false
	for ri := range idx.regions {
		r := &idx.regions[ri]
		cr := &crcReader{r: io.NewSectionReader(f, int64(r.off), int64(r.length))}
		d := newSeededDecoder(cr, nil, r.meta)
		var nsyms, nobjs uint64
		for {
			ev, err := d.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, verifySpanCRC(path, -1, r.off, cr, r.crc, idx.hasCRC, err)
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
		if err := verifySpanCRC(path, -1, r.off, cr, r.crc, idx.hasCRC, nil); err != nil {
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

	sh.segs = make([]streamSeg, len(idx.segs))
	for si := range idx.segs {
		seg := &idx.segs[si]
		if seg.maxSize > 255 {
			return nil, fmt.Errorf("trace: access size %d unsupported (max 255)", seg.maxSize)
		}
		d := newSeededDecoder(io.NewSectionReader(f, int64(seg.off), int64(seg.length)), seg.threads, seg.meta)
		ev, err := d.next()
		if err != nil {
			return nil, fmt.Errorf("trace: index: segment for phase %d: %w", seg.phase, err)
		}
		if ev.Kind != KindPhase || ev.Phase != seg.phase {
			return nil, fmt.Errorf("trace: index: segment for phase %d does not start at its phase record", seg.phase)
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
	f, err := os.Open(sh.path)
	if err != nil {
		return err
	}
	defer f.Close()
	for ri := range sh.idx.regions {
		r := &sh.idx.regions[ri]
		d := newSeededDecoder(io.NewSectionReader(f, int64(r.off), int64(r.length)), nil, r.meta)
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
		f, err := os.Open(sh.path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		seen := make(map[uint64]bool)
		for _, si := range scan {
			seg := &sh.idx.segs[si]
			d := newSeededDecoder(io.NewSectionReader(f, int64(seg.off), int64(seg.length)), seg.threads, seg.meta)
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
// restores the layout exactly as Replay.Prepare does, and the program
// loads one phase's operations at a time as the engine reaches it.
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

	mu     sync.Mutex
	winSeg int             // segment index currently resident, -1 before the first load
	win    []*replayThread // the resident segment's threads, indexed by id
	// loads counts segment loads; maxWindowOps is the largest operation
	// count ever resident — the bounded-memory evidence tests assert on.
	loads        int
	maxWindowOps uint64
}

// OpenStream opens an indexed binary v3 trace for streaming replay. It
// reads only the index and layout metadata (lazily shared across opens
// of the same file); the access records stay on disk until the engine
// reaches their phase. Non-indexed traces fail here — use ReadFile.
func OpenStream(path string) (*StreamReplay, error) {
	sh, err := sharedFor(path)
	if err != nil {
		return nil, err
	}
	return &StreamReplay{
		sh: sh, Name: sh.name, Cores: sh.cores, Accesses: sh.idx.accesses,
		Notes:  sh.notes,
		winSeg: -1,
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

// loadPhase decodes one segment into fresh per-thread operation lists,
// indexed by thread id, cross-checking every record against the index's
// claims. Each list is sized up front from its thread's claim, which
// index validation bounds by the segment's byte length, so a load
// allocates per thread, never per record.
func (s *StreamReplay) loadPhase(si int) ([]*replayThread, error) {
	sh := s.sh
	seg := &sh.idx.segs[si]
	f, err := os.Open(sh.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := &crcReader{r: io.NewSectionReader(f, int64(seg.off), int64(seg.length))}
	d := newSeededDecoder(cr, seg.threads, seg.meta)
	// checked wraps every failure so a corrupt payload under a valid
	// index surfaces as CorruptPayloadError rather than whatever decode
	// or count error the damage happens to trip first.
	checked := func(cause error) error {
		return verifySpanCRC(sh.path, seg.phase, seg.off, cr, seg.crc, sh.idx.hasCRC, cause)
	}

	// The thread list is ascending, so its last id sizes the table.
	threads := make([]replayThread, len(seg.threads))
	var win []*replayThread
	if n := len(seg.threads); n > 0 {
		win = make([]*replayThread, seg.threads[n-1].tid+1)
	}
	for i, t := range seg.threads {
		threads[i].ops = make([]replayOp, 0, t.accesses)
		win[t.tid] = &threads[i]
	}
	var ev Event
	if err := d.nextInto(&ev); err != nil {
		return nil, checked(err)
	}
	if ev.Kind != KindPhase || ev.Phase != seg.phase {
		return nil, checked(fmt.Errorf("trace: segment for phase %d does not start at its phase record", seg.phase))
	}
	var total uint64
	for {
		err := d.nextInto(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, checked(err)
		}
		if ev.Kind != KindAccess && ev.Kind != KindThreadEnd {
			return nil, checked(fmt.Errorf("trace: phase %d segment contains a kind-%d record", seg.phase, ev.Kind))
		}
		if ev.Phase != seg.phase {
			return nil, checked(fmt.Errorf("trace: phase %d segment contains a record for phase %d", seg.phase, ev.Phase))
		}
		var rt *replayThread
		if uint(ev.TID) < uint(len(win)) {
			rt = win[ev.TID]
		}
		if rt == nil {
			return nil, checked(fmt.Errorf("trace: phase %d segment has records for unindexed thread %d", seg.phase, ev.TID))
		}
		if ev.Kind == KindThreadEnd {
			rt.endInstrs = ev.Instrs
			rt.sawEnd = true
			continue
		}
		if ev.Size > 255 {
			return nil, checked(fmt.Errorf("trace: access size %d unsupported (max 255)", ev.Size))
		}
		var gap uint64
		if ev.IP > rt.lastIP {
			gap = ev.IP - rt.lastIP - 1
			rt.lastIP = ev.IP
		}
		size := uint8(ev.Size)
		if size == 0 {
			size = 4
		}
		rt.ops = append(rt.ops, replayOp{gap: gap, addr: remapForeign(s.runs, ev.Addr), size: size, write: ev.Write})
		total++
	}
	if total != seg.accesses {
		return nil, checked(fmt.Errorf("trace: phase %d segment has %d accesses, index claims %d", seg.phase, total, seg.accesses))
	}
	for i, t := range seg.threads {
		if n := uint64(len(threads[i].ops)); n != t.accesses {
			return nil, checked(fmt.Errorf("trace: phase %d thread %d has %d accesses, index claims %d",
				seg.phase, t.tid, n, t.accesses))
		}
	}
	if err := checked(nil); err != nil {
		return nil, err
	}
	return win, nil
}

// acquire returns tid's operations for segment si, loading the segment
// into the window if it is not resident. The engine finishes every body
// of a phase before starting the next, so each segment loads exactly
// once per sequential replay. A load failure here means the file
// changed or broke after open-time validation — a contract violation
// reported by panic, like workload Build errors.
func (s *StreamReplay) acquire(si int, tid mem.ThreadID) *replayThread {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.winSeg != si {
		win, err := s.loadPhase(si)
		if err != nil {
			panic(fmt.Sprintf("trace: streaming replay of %s: loading phase %d: %v",
				s.sh.path, s.sh.idx.segs[si].phase, err))
		}
		s.win = win
		s.winSeg = si
		s.loads++
		ops := s.sh.idx.segs[si].accesses // loadPhase checked the count
		if ops > s.maxWindowOps {
			s.maxWindowOps = ops
		}
		mWindowLoads.Inc()
		mWindowOps.Add(ops)
		mWindowOpsMax.SetMax(int64(ops))
		if obs.TracingEnabled() {
			obs.Event("trace", "window-load", 0, map[string]any{
				"path": s.sh.path, "phase": s.sh.idx.segs[si].phase, "ops": ops,
			})
		}
	}
	if uint(tid) < uint(len(s.win)) {
		return s.win[tid]
	}
	return nil
}

// streamBody defers the segment load to the moment the engine actually
// runs the thread, keeping program construction allocation-free.
func (s *StreamReplay) streamBody(si int, tid mem.ThreadID) exec.Body {
	return func(t *exec.T) {
		bodyFor(s.acquire(si, tid))(t)
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
// slice of the full run on a fresh system — the unit of phase-sharded
// sweeps.
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
			prog.Phases = append(prog.Phases, exec.SerialPhase(name, s.streamBody(si, mem.MainThread)))
			continue
		}
		pooled := false
		bodies := make([]exec.Body, 0, len(ss.tids))
		for _, tid := range ss.tids {
			if s.sh.appearances[tid] > 1 {
				pooled = true
			}
			bodies = append(bodies, s.streamBody(si, tid))
		}
		prog.Phases = append(prog.Phases, exec.Phase{Name: name, Bodies: bodies, Pooled: pooled})
	}
	return prog
}

// MaxPhase returns the highest phase index in the trace.
func (s *StreamReplay) MaxPhase() int { return s.sh.maxPhase }

// StreamPhase describes one indexed phase, for shard planning.
type StreamPhase struct {
	Index    int
	Name     string
	Parallel bool
	Accesses uint64
}

// Phases lists the trace's indexed phases in ascending phase order.
func (s *StreamReplay) Phases() []StreamPhase {
	out := make([]StreamPhase, 0, len(s.sh.segs))
	for idx := 0; idx <= s.sh.maxPhase; idx++ {
		si, ok := s.sh.phaseSeg[idx]
		if !ok {
			continue
		}
		out = append(out, StreamPhase{
			Index: idx, Name: s.sh.segs[si].name,
			Parallel: s.sh.segs[si].parallel, Accesses: s.sh.idx.segs[si].accesses,
		})
	}
	return out
}

// WindowStats reports how many segment loads the replay performed and
// the largest operation count ever resident — the evidence that memory
// stayed bounded by the largest phase rather than the whole trace.
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
		if _, err := s.loadPhase(si); err != nil {
			return err
		}
	}
	s.Program()
	return nil
}
