package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/symtab"
)

// indexableEvents is a well-ordered multi-phase stream the IndexedEncoder
// can index: program first, each phase's records contiguous, distinct
// phase indices, a layout record between phases (forcing a mid-file
// region), a pooled thread (tid 1 in two parallel phases), and one
// foreign address outside the default heap/globals segments.
func indexableEvents() []Event {
	return []Event{
		{Kind: KindProgram, Name: "indexable", Cores: 8},
		{Kind: KindSymbol, Name: "globals", Addr: 0x10000000, Size: 4096},
		{Kind: KindObject, Addr: 0x40000000, Size: 256, Class: 256, TID: 0, Seq: 1, Live: true},
		{Kind: KindPhase, Phase: 0, Parallel: false, Name: "init"},
		{Kind: KindAccess, TID: 0, Write: true, Addr: 0x10000040, Size: 8, IP: 3, Lat: 4, Phase: 0},
		{Kind: KindThreadEnd, TID: 0, Phase: 0, Instrs: 10},
		{Kind: KindPhase, Phase: 1, Parallel: true, Name: "work"},
		{Kind: KindAccess, TID: 1, Write: true, Addr: 0x40000000, Size: 4, IP: 5, Lat: 9, Phase: 1},
		{Kind: KindAccess, TID: 2, Write: false, Addr: 0x40000004, Size: 4, IP: 5, Lat: 200, Phase: 1},
		{Kind: KindAccess, TID: 1, Write: true, Addr: 0x90000000, Size: 4, IP: 8, Lat: 3, Phase: 1},
		{Kind: KindThreadEnd, TID: 1, Phase: 1, Instrs: 20},
		{Kind: KindThreadEnd, TID: 2, Phase: 1, Instrs: 20},
		{Kind: KindSymbol, Name: "late", Addr: 0x10001000, Size: 64},
		{Kind: KindPhase, Phase: 2, Parallel: true, Name: "reduce"},
		{Kind: KindAccess, TID: 1, Write: false, Addr: 0x40000040, Size: 4, IP: 4, Lat: 5, Phase: 2},
		{Kind: KindThreadEnd, TID: 1, Phase: 2, Instrs: 9},
	}
}

// indexedBytes encodes evs through the IndexedEncoder, failing the test
// if the stream turns out unindexable.
func indexedBytes(t testing.TB, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewIndexedEncoder(&buf)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			t.Fatalf("encode %+v: %v", ev, err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestIndexedTraceRoundTrip: a v3 indexed trace must decode sequentially
// to the exact event stream a plain v2 encode produces, and its index
// must parse, validate, and agree with the stream's totals.
func TestIndexedTraceRoundTrip(t *testing.T) {
	evs := indexableEvents()
	data := indexedBytes(t, evs)

	var v2 bytes.Buffer
	enc := NewBinaryEncoder(&v2)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}

	got := decodeEvents(t, data)
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("indexed v3 trace did not round-trip the event stream")
	}
	if !reflect.DeepEqual(got, decodeEvents(t, v2.Bytes())) {
		t.Fatal("v3 and v2 framings decoded to different event streams")
	}

	d := NewDecoder(bytes.NewReader(data))
	for {
		if _, err := d.Next(); err != nil {
			break
		}
	}
	if f := d.Framing(); f != "binary v3" {
		t.Errorf("Framing() = %q, want binary v3", f)
	}
	if !d.Indexed() {
		t.Error("Indexed() = false after decoding an indexed trace")
	}

	idx, err := readIndexAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("readIndexAt: %v", err)
	}
	var wantAccesses uint64
	phases := map[int]bool{}
	for _, ev := range evs {
		if ev.Kind == KindAccess {
			wantAccesses++
		}
		if ev.Kind == KindPhase {
			phases[ev.Phase] = true
		}
	}
	if idx.accesses != wantAccesses {
		t.Errorf("index claims %d accesses, stream has %d", idx.accesses, wantAccesses)
	}
	if len(idx.segs) != len(phases) {
		t.Errorf("index has %d segments, stream declares %d phases", len(idx.segs), len(phases))
	}

	path := writeTemp(t, data)
	if !FileIsIndexed(path) {
		t.Error("FileIsIndexed = false for an indexed trace")
	}
	if err := ValidateStream(path); err != nil {
		t.Errorf("ValidateStream: %v", err)
	}
}

// TestUnindexableStreamFallsBack: a stream violating the indexable shape
// (sampleEvents interleaves phase records) must still be written as a
// valid sequential v3 trace, with Close reporting ErrUnindexable and no
// index block present.
func TestUnindexableStreamFallsBack(t *testing.T) {
	evs := sampleEvents()
	var buf bytes.Buffer
	enc := NewIndexedEncoder(&buf)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	err := enc.Close()
	if !errors.Is(err, ErrUnindexable) {
		t.Fatalf("Close = %v, want ErrUnindexable", err)
	}
	if got := decodeEvents(t, buf.Bytes()); !reflect.DeepEqual(got, evs) {
		t.Fatal("unindexable v3 trace did not decode sequentially")
	}
	if _, err := readIndexAt(bytes.NewReader(buf.Bytes()), int64(buf.Len())); !errors.Is(err, ErrNoIndex) {
		t.Errorf("readIndexAt = %v, want ErrNoIndex", err)
	}
	path := writeTemp(t, buf.Bytes())
	if FileIsIndexed(path) {
		t.Error("FileIsIndexed = true for a trace without an index")
	}
}

// indexSpans locates the index record inside an indexed trace: the
// record's start offset and the payload's byte range.
func indexSpans(t testing.TB, data []byte) (indexOff, payloadStart, payloadEnd uint64) {
	t.Helper()
	foot := data[len(data)-footerSize:]
	indexOff = binary.LittleEndian.Uint64(foot[:8])
	payloadLen, n := binary.Uvarint(data[indexOff+1:])
	if n <= 0 {
		t.Fatal("bad payload length in test fixture")
	}
	payloadStart = indexOff + 1 + uint64(n)
	return indexOff, payloadStart, payloadStart + payloadLen
}

// reindex rewrites data's index block after applying mutate to the
// parsed index — the tool for crafting structurally-corrupt indexes that
// are byte-level well-formed.
func reindex(t testing.TB, data []byte, mutate func(idx *traceIndex)) []byte {
	t.Helper()
	indexOff, payloadStart, payloadEnd := indexSpans(t, data)
	idx, err := parseIndexPayload(data[payloadStart:payloadEnd])
	if err != nil {
		t.Fatalf("parsing fixture index: %v", err)
	}
	mutate(idx)
	out := append([]byte{}, data[:indexOff]...)
	payload := appendIndexPayload(nil, idx)
	out = append(out, kindIndexBlock)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[:8], indexOff)
	copy(foot[8:], footerMagic)
	return append(out, foot[:]...)
}

// wrapThreadClaims adds four threads claiming 2^62 accesses each to
// segment 1. Their claims sum to 2^64, which wraps to 0 in uint64, so
// the segment's thread sum still equals its own claim; replay would size
// 2^62-entry operation lists from them.
func wrapThreadClaims(idx *traceIndex) {
	s := &idx.segs[1]
	last := s.threads[len(s.threads)-1].tid
	for i := mem.ThreadID(1); i <= 4; i++ {
		s.threads = append(s.threads, segThread{tid: last + i, accesses: 1 << 62})
	}
}

// TestIndexFaultInjection: corrupted or inconsistent index blocks must
// surface as terminal errors from both the seeking reader and the
// streaming opener — never a panic, never a silent wrong replay — while
// the sequential decoder never resynchronizes past damage.
func TestIndexFaultInjection(t *testing.T) {
	base := indexedBytes(t, indexableEvents())

	structural := map[string]func(idx *traceIndex){
		"segments-out-of-order": func(idx *traceIndex) {
			idx.segs[0], idx.segs[1] = idx.segs[1], idx.segs[0]
		},
		"overlapping-spans": func(idx *traceIndex) {
			idx.segs[1].off--
		},
		"gap-in-tiling": func(idx *traceIndex) {
			idx.regions[0].length--
		},
		"total-access-mismatch": func(idx *traceIndex) {
			idx.accesses++
		},
		"thread-sum-mismatch": func(idx *traceIndex) {
			idx.segs[1].threads[0].accesses++
		},
		"segment-count-mismatch": func(idx *traceIndex) {
			idx.segs[1].accesses--
			idx.segs[1].threads[0].accesses--
			idx.accesses -= 2
		},
		"duplicate-phase": func(idx *traceIndex) {
			idx.segs[1].phase = idx.segs[0].phase
		},
		"inverted-address-bounds": func(idx *traceIndex) {
			idx.segs[1].addrMin, idx.segs[1].addrMax = 100, 1
		},
		"thread-order-violation": func(idx *traceIndex) {
			th := idx.segs[1].threads
			th[0], th[1] = th[1], th[0]
		},
		"phase-out-of-range": func(idx *traceIndex) {
			idx.segs[2].phase = MaxPhaseIndex + 1
		},
		"thread-claims-wrap": wrapThreadClaims,
	}
	raw := map[string]func([]byte) []byte{
		"bad-format-byte": func(d []byte) []byte {
			out := append([]byte{}, d...)
			_, ps, _ := indexSpans(t, out)
			out[ps] ^= 0xFF
			return out
		},
		"truncated-footer": func(d []byte) []byte {
			return d[:len(d)-3]
		},
		"flipped-footer-magic": func(d []byte) []byte {
			out := append([]byte{}, d...)
			out[len(out)-1] ^= 0xFF
			return out
		},
		"footer-offset-outside-file": func(d []byte) []byte {
			out := append([]byte{}, d...)
			binary.LittleEndian.PutUint64(out[len(out)-footerSize:], uint64(len(out)))
			return out
		},
		"footer-offset-into-records": func(d []byte) []byte {
			out := append([]byte{}, d...)
			binary.LittleEndian.PutUint64(out[len(out)-footerSize:], 9)
			return out
		},
		"trailing-garbage": func(d []byte) []byte {
			return append(append([]byte{}, d...), 0)
		},
		"truncated-payload": func(d []byte) []byte {
			off, _, _ := indexSpans(t, d)
			return d[:off+5]
		},
	}

	check := func(t *testing.T, data []byte, wantIndexError bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on corrupted index: %v", r)
			}
		}()
		if _, err := readIndexAt(bytes.NewReader(data), int64(len(data))); err == nil && wantIndexError {
			t.Error("readIndexAt accepted a corrupted index")
		} else if wantIndexError && errors.Is(err, ErrNoIndex) {
			t.Errorf("corruption reported as benign ErrNoIndex: %v", err)
		}
		path := writeTemp(t, data)
		if err := ValidateStream(path); err == nil {
			t.Error("ValidateStream accepted a corrupted trace")
		}
		// The sequential decoder must terminate with EOF or a latched
		// error, never resync or loop.
		d := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 1<<20; i++ {
			if _, err := d.Next(); err != nil {
				return
			}
		}
		t.Error("sequential decode did not terminate")
	}

	for name, mutate := range structural {
		t.Run(name, func(t *testing.T) {
			check(t, reindex(t, base, mutate), true)
		})
	}
	for name, corrupt := range raw {
		t.Run(name, func(t *testing.T) {
			// Footer-level damage may legitimately read as "no index";
			// only payload-intact cases must report corruption loudly.
			check(t, corrupt(base), false)
		})
	}

	// A wrong-but-in-bounds prediction snapshot is indistinguishable from
	// record corruption under delta framing (there are no checksums): the
	// replay may differ, but nothing may panic, hang, or resynchronize.
	t.Run("wrong-thread-state", func(t *testing.T) {
		data := reindex(t, base, func(idx *traceIndex) {
			idx.segs[1].threads[0].state.addr = 1 << 61
		})
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on poisoned thread state: %v", r)
			}
		}()
		_ = ValidateStream(writeTemp(t, data))
	})
}

// TestNonIndexedFormatsUnchanged: v1 corpus files, v2 buffers and text
// traces must be untouched by the index machinery — not detected as
// indexed, rejected by OpenStream, decoded exactly as before.
func TestNonIndexedFormatsUnchanged(t *testing.T) {
	var v2 bytes.Buffer
	encodeAll(t, NewBinaryEncoder(&v2), sampleEvents())
	var text bytes.Buffer
	encodeAll(t, NewTextEncoder(&text), sampleEvents())
	cases := map[string][]byte{"binary-v2": v2.Bytes(), "text": text.Bytes()}

	dir := filepath.Join("testdata", "corpus-v1")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading v1 corpus: %v", err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		cases["corpus-"+e.Name()] = data
	}

	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if len(decodeEvents(t, data)) == 0 {
				t.Fatal("trace decoded to zero events")
			}
			path := writeTemp(t, data)
			if FileIsIndexed(path) {
				t.Error("FileIsIndexed = true for a non-indexed trace")
			}
			if _, err := OpenStream(path); err == nil {
				t.Error("OpenStream accepted a non-indexed trace")
			}
		})
	}
}

// TestStreamWindowStats is the bounded-memory evidence: replaying a
// multi-phase trace loads each segment exactly once, and the largest
// resident window stays well under the whole trace's operation count.
func TestStreamWindowStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "synth.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewIndexedEncoder(f)
	cfg := SynthConfig{Accesses: 1 << 12, Threads: 4, Phases: 16}
	if err := WriteSynthetic(enc, cfg); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare(heap.New(heap.Config{}), symtab.New(symtab.Config{})); err != nil {
		t.Fatal(err)
	}
	// Drive the window as the engine's bodies do, short of releasing it:
	// phases in order, every thread of a phase draining its queue before
	// the next phase.
	for si := range s.sh.idx.segs {
		for _, tid := range s.sh.segs[si].tids {
			w := s.acquire(si)
			lt := w.thread(tid)
			if lt == nil {
				t.Fatalf("segment %d has no thread %d", si, tid)
			}
			for ops := range lt.q {
				s.recycle(ops)
			}
			if <-w.done; w.err != nil {
				t.Fatal(w.err)
			}
		}
	}
	loads, maxOps := s.WindowStats()
	if want := len(s.sh.idx.segs); loads != want {
		t.Errorf("replay performed %d segment loads, want %d (one per phase)", loads, want)
	}
	if maxOps == 0 || maxOps >= s.Accesses {
		t.Errorf("max resident window %d ops is not bounded below the whole trace (%d)", maxOps, s.Accesses)
	}
	// Re-acquiring the resident segment must not reload it.
	last := len(s.sh.idx.segs) - 1
	<-s.acquire(last).done
	if l, _ := s.WindowStats(); l != loads {
		t.Errorf("re-acquire of the resident segment reloaded it (%d -> %d loads)", loads, l)
	}
}

// TestStreamProgramRunsTwice: a streamed program is as reusable as a
// full replay's. Once every body has released a phase window, running
// the program again reloads the phase instead of replaying the spent
// one. The trace has a single phase, so the second run asks for the
// very segment the first left resident.
func TestStreamProgramRunsTwice(t *testing.T) {
	evs := []Event{
		{Kind: KindProgram, Name: "one-phase", Cores: 8},
		{Kind: KindPhase, Phase: 0, Parallel: true, Name: "work"},
	}
	for i := 0; i < 3000; i++ {
		evs = append(evs, Event{Kind: KindAccess, TID: mem.ThreadID(1 + i%2), Write: i%3 == 0,
			Addr: mem.Addr(0x10000000 + 8*(i%16)), Size: 8, IP: uint64(2*i + 2), Lat: 4})
	}
	evs = append(evs, Event{Kind: KindThreadEnd, TID: 1, Instrs: 7000}, Event{Kind: KindThreadEnd, TID: 2, Instrs: 7000})
	s := preparedStream(t, writeTemp(t, indexedBytes(t, evs)))
	if len(s.sh.idx.segs) != 1 {
		t.Fatalf("fixture has %d segments, want 1", len(s.sh.idx.segs))
	}
	prog := s.Program()
	run := func() exec.Result {
		return exec.New(cache.New(cache.DefaultConfig(s.Cores)), exec.DefaultConfig()).Run(prog)
	}
	first, second := run(), run()
	if first.Accesses() != 3000 {
		t.Fatalf("first run simulated %d accesses, want 3000", first.Accesses())
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("second run of the streamed program differs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if loads, _ := s.WindowStats(); loads != 2*len(s.sh.idx.segs) {
		t.Errorf("two runs loaded %d windows, want %d", loads, 2*len(s.sh.idx.segs))
	}
}

// phaseCounter counts the accesses the engine runs in each phase.
type phaseCounter struct {
	exec.BaseProbe
	phase    int
	accesses map[int]int
}

func (p *phaseCounter) PhaseStart(ph exec.PhaseInfo) { p.phase = ph.Index }

func (p *phaseCounter) Access(mem.Access, uint64) uint64 {
	p.accesses[p.phase]++
	return 0
}

// replayStreamed runs s's program on a fresh engine under probes and
// returns the value Run panicked with (nil when it returned) and each
// body's own panic. A replay that deadlocks fails the test after a
// minute instead of hanging it.
func replayStreamed(t *testing.T, s *StreamReplay, probes ...exec.Probe) (runPanic any, bodyPanics []any) {
	t.Helper()
	prog := s.Program()
	var mu sync.Mutex
	for i := range prog.Phases {
		bodies := prog.Phases[i].Bodies
		for j, body := range bodies {
			bodies[j] = func(tt *exec.T) {
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						bodyPanics = append(bodyPanics, r)
						mu.Unlock()
						panic(r)
					}
				}()
				body(tt)
			}
		}
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		exec.New(cache.New(cache.DefaultConfig(s.Cores)), exec.DefaultConfig(), probes...).Run(prog)
	}()
	select {
	case runPanic = <-done:
	case <-time.After(time.Minute):
		t.Fatal("streamed replay deadlocked")
	}
	mu.Lock()
	defer mu.Unlock()
	return runPanic, bodyPanics
}

// awaitGoroutines fails the test unless the goroutine count returns to
// at most before within a few seconds.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed replay, %d before", n, before)
	}
}

// TestUncheckedIndexSkewFailsEveryBody: under a checksum-less (format-1)
// index whose per-thread claims disagree with the records, the phase
// loader cannot know before decoding that the segment is bad. Every body
// of the phase must still fail with the same message, Run must re-raise
// it, and nothing may hang or leak. The claims move 15000 of thread 1's
// 16384 accesses to thread 2. A synthetic trace writes thread 1's
// records before thread 2's, and the engine needs thread 2's first
// buffer while thread 1's body holds its second, so a loader that
// queued thread 1's records past its claim would fill the queue and
// block forever.
func TestUncheckedIndexSkewFailsEveryBody(t *testing.T) {
	const moved = 15000
	_, data := synthTrace(t, SynthConfig{Accesses: 1 << 16, Threads: 4, Phases: 1})
	path := writeTemp(t, reindex(t, data, func(idx *traceIndex) {
		idx.hasCRC = false
		th := idx.segs[1].threads
		th[0].accesses -= moved
		th[1].accesses += moved
	}))
	s := preparedStream(t, path)
	seg := &s.sh.idx.segs[1]
	if s.sh.idx.hasCRC || seg.threads[0].accesses > 2*chunkOps {
		t.Fatal("fixture is not a checksum-less index with a multi-chunk skew")
	}
	want := fmt.Sprintf("trace: streaming replay of %s: loading phase %d: trace: phase %d thread %d has %d accesses, index claims %d",
		path, seg.phase, seg.phase, seg.threads[0].tid, seg.threads[0].accesses+moved, seg.threads[0].accesses)

	before := runtime.NumGoroutine()
	runPanic, bodyPanics := replayStreamed(t, s)
	bp, ok := runPanic.(*exec.BodyPanic)
	if !ok || bp.Value != want {
		t.Fatalf("Run panicked with %v, want a *exec.BodyPanic of %q", runPanic, want)
	}
	if len(bodyPanics) != len(seg.threads) {
		t.Errorf("%d bodies panicked, want all %d of the phase", len(bodyPanics), len(seg.threads))
	}
	for _, p := range bodyPanics {
		if p != want {
			t.Errorf("a body panicked with %v, want %q", p, want)
		}
	}
	awaitGoroutines(t, before)
}

// TestReadMetaFileAgreesWithScan: the lazy metadata path over the index
// must report the same quantities a full sequential scan does.
func TestReadMetaFileAgreesWithScan(t *testing.T) {
	data := indexedBytes(t, indexableEvents())
	path := writeTemp(t, data)

	viaIndex, err := ReadMetaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	viaScan, err := ReadMeta(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !viaIndex.Indexed {
		t.Error("ReadMetaFile did not mark an indexed trace as indexed")
	}
	if !reflect.DeepEqual(viaIndex, viaScan) {
		t.Errorf("metadata mismatch:\nindex: %+v\nscan:  %+v", viaIndex, viaScan)
	}
}
