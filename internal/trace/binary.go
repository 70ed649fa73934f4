package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/heap"
	"repro/internal/mem"
)

// Binary framing versions. The framing carries the same schema as the
// text form; the version selects only how records are laid out on disk.
// v1 encodes every column as an absolute uvarint; v2 delta-encodes the
// hot columns (per-thread addr/ip/size/lat/phase on access records,
// addr/seq runs on the metadata snapshot) as zigzag varints, which
// shrinks typical traces severalfold. The decoder auto-detects the
// version from the magic, so v1 corpus files decode forever.
const (
	BinaryV1 = 1
	BinaryV2 = 2
	// BinaryV3 is v2's record layout plus an optional seekable index
	// block at end of stream (see index.go). NewIndexedEncoder writes it;
	// sequential decoding is identical to v2, so a v3 trace replays
	// through every existing path unchanged.
	BinaryV3 = 3
	// BinaryVersion is the framing NewBinaryEncoder writes.
	BinaryVersion = BinaryV2
	// binaryMaxVersion is the newest framing the decoder accepts.
	binaryMaxVersion = BinaryV3
)

// binaryMagicFor returns the magic opening a binary trace of the given
// framing version. The leading NUL distinguishes binary from text
// framing ('#') in one byte.
func binaryMagicFor(version int) []byte {
	return []byte{0x00, 'C', 'H', 'T', 'R', 'B', '0' + byte(version), '\n'}
}

// BinaryEncoder writes the compact varint framing.
type BinaryEncoder struct {
	w       *bufio.Writer
	buf     []byte
	err     error
	version int
	// written is the logical byte offset past the last record handed to
	// the bufio writer (buffered or flushed) — the index writer's source
	// of record offsets, maintained here so no counting wrapper has to
	// sit under the buffer.
	written uint64
	// Per-thread column predictors (v2).
	prev tidTable[accessState]
	meta metaState
	// onRecord, when set, observes the exact bytes of each encoded record
	// after it is written. The index writer hooks it to checksum record
	// payloads span by span without re-reading the stream.
	onRecord func([]byte)
}

// accessState is one thread's last-seen access columns, the prediction
// context for v2 delta encoding. The zero value is the defined initial
// context, so a thread's first access encodes its absolute values.
type accessState struct {
	addr  uint64
	ip    uint64
	size  uint64
	lat   uint64
	phase uint64
}

// denseThreads bounds the thread ids a tidTable keeps in its dense
// slice: every recorder numbers threads from 0, so real traces never
// leave it, while one hostile id near MaxThreadID cannot size a
// megabyte-scale slice.
const denseThreads = 1 << 12

// tidTable maps thread ids to per-thread state: a dense slice for ids
// in [0, denseThreads) and a map for the rest — ids a hostile trace can
// claim up to MaxThreadID, and the negative ids hand-built events can
// carry into an encoder. A missing entry reads as T's zero value.
type tidTable[T any] struct {
	dense  []T
	sparse map[mem.ThreadID]*T
}

// at returns tid's entry, creating the zero value on first use. The
// pointer is valid until the next call.
func (t *tidTable[T]) at(tid mem.ThreadID) *T {
	if uint32(tid) < uint32(len(t.dense)) {
		return &t.dense[tid]
	}
	return t.grow(tid)
}

func (t *tidTable[T]) grow(tid mem.ThreadID) *T {
	if tid >= 0 && tid < denseThreads {
		dense := make([]T, min(max(int(tid)+1, 2*len(t.dense)), denseThreads))
		copy(dense, t.dense)
		t.dense = dense
		return &t.dense[tid]
	}
	v := t.sparse[tid]
	if v == nil {
		if t.sparse == nil {
			t.sparse = make(map[mem.ThreadID]*T)
		}
		v = new(T)
		t.sparse[tid] = v
	}
	return v
}

// v2 access-record flag bits. Bit 0 is the store/load bit (shared with
// v1's write byte); the "same" bits elide columns whose value repeats
// the thread's previous access — in practice most accesses keep their
// width, phase and (for cache hits) latency, so a typical access record
// is kind + tid + flags + two short deltas.
const (
	accessWrite     = 1 << 0
	accessSameSize  = 1 << 1
	accessSameLat   = 1 << 2
	accessSamePhase = 1 << 3
	accessFlagsMask = accessWrite | accessSameSize | accessSameLat | accessSamePhase
)

// metaState is the prediction context for the layout snapshot: symbol
// and object records each delta-encode their base address against the
// previous record of the same kind (the snapshot is emitted in address
// order, so the deltas are short), and objects additionally
// delta-encode the allocation sequence number.
type metaState struct {
	symAddr uint64
	objAddr uint64
	objSeq  uint64
}

// NewBinaryEncoder creates a binary encoder over w in the current
// framing version. The magic is written immediately; any error surfaces
// from Encode or Close.
func NewBinaryEncoder(w io.Writer) *BinaryEncoder {
	return newBinaryEncoder(w, BinaryVersion)
}

func newBinaryEncoder(w io.Writer, version int) *BinaryEncoder {
	e := &BinaryEncoder{
		w:       bufio.NewWriterSize(w, 1<<16),
		buf:     make([]byte, 0, 256),
		version: version,
	}
	magic := binaryMagicFor(version)
	_, e.err = e.w.Write(magic)
	e.written = uint64(len(magic))
	return e
}

// Encode implements Encoder.
func (e *BinaryEncoder) Encode(ev Event) error { return e.encode(&ev) }

func (e *BinaryEncoder) encode(ev *Event) error {
	if e.err != nil {
		return e.err
	}
	b := append(e.buf[:0], byte(ev.Kind))
	switch ev.Kind {
	case KindProgram:
		b = binary.AppendUvarint(b, uint64(ev.Cores))
		b = appendString(b, ev.Name)
	case KindSymbol:
		if e.version >= BinaryV2 {
			b = appendZigzag(b, uint64(ev.Addr)-e.meta.symAddr)
			e.meta.symAddr = uint64(ev.Addr)
		} else {
			b = binary.AppendUvarint(b, uint64(ev.Addr))
		}
		b = binary.AppendUvarint(b, ev.Size)
		b = appendString(b, ev.Name)
	case KindObject:
		if e.version >= BinaryV2 {
			b = appendZigzag(b, uint64(ev.Addr)-e.meta.objAddr)
			e.meta.objAddr = uint64(ev.Addr)
		} else {
			b = binary.AppendUvarint(b, uint64(ev.Addr))
		}
		b = binary.AppendUvarint(b, ev.Size)
		b = binary.AppendUvarint(b, ev.Class)
		b = binary.AppendUvarint(b, uint64(ev.TID))
		if e.version >= BinaryV2 {
			b = appendZigzag(b, ev.Seq-e.meta.objSeq)
			e.meta.objSeq = ev.Seq
		} else {
			b = binary.AppendUvarint(b, ev.Seq)
		}
		b = append(b, byte(b2i(ev.Live)))
		b = binary.AppendUvarint(b, uint64(len(ev.Stack)))
		for _, f := range ev.Stack {
			b = appendString(b, f.File)
			b = binary.AppendUvarint(b, uint64(f.Line))
			b = appendString(b, f.Func)
		}
	case KindPhase:
		b = binary.AppendUvarint(b, uint64(ev.Phase))
		b = append(b, byte(b2i(ev.Parallel)))
		b = appendString(b, ev.Name)
	case KindThreadEnd:
		b = binary.AppendUvarint(b, uint64(ev.TID))
		b = binary.AppendUvarint(b, uint64(ev.Phase))
		b = binary.AppendUvarint(b, ev.Instrs)
	case KindNote:
		b = appendString(b, ev.Name)
	case KindAccess:
		b = binary.AppendUvarint(b, uint64(ev.TID))
		if e.version >= BinaryV2 {
			st := e.prev.at(ev.TID)
			flags := byte(b2i(ev.Write))
			if ev.Size == st.size {
				flags |= accessSameSize
			}
			if uint64(ev.Lat) == st.lat {
				flags |= accessSameLat
			}
			if uint64(ev.Phase) == st.phase {
				flags |= accessSamePhase
			}
			b = append(b, flags)
			b = appendZigzag(b, uint64(ev.Addr)-st.addr)
			b = appendZigzag(b, ev.IP-st.ip)
			if flags&accessSameSize == 0 {
				b = appendZigzag(b, ev.Size-st.size)
			}
			if flags&accessSameLat == 0 {
				b = appendZigzag(b, uint64(ev.Lat)-st.lat)
			}
			if flags&accessSamePhase == 0 {
				b = appendZigzag(b, uint64(ev.Phase)-st.phase)
			}
			*st = accessState{
				addr: uint64(ev.Addr), ip: ev.IP, size: ev.Size,
				lat: uint64(ev.Lat), phase: uint64(ev.Phase),
			}
		} else {
			b = append(b, byte(b2i(ev.Write)))
			b = binary.AppendUvarint(b, uint64(ev.Addr))
			b = binary.AppendUvarint(b, ev.Size)
			b = binary.AppendUvarint(b, ev.IP)
			b = binary.AppendUvarint(b, uint64(ev.Lat))
			b = binary.AppendUvarint(b, uint64(ev.Phase))
		}
	default:
		return fmt.Errorf("trace: encode: unknown event kind %d", ev.Kind)
	}
	e.buf = b[:0]
	_, e.err = e.w.Write(b)
	e.written += uint64(len(b))
	if e.err == nil && e.onRecord != nil {
		e.onRecord(b)
	}
	return e.err
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendZigzag writes a wrapping column delta as a zigzag varint: the
// difference is computed in wrapping uint64 arithmetic, reinterpreted as
// signed so small moves in either direction encode in one or two bytes,
// and the decoder reverses it with a wrapping add — an exact round trip
// for every uint64 value.
func appendZigzag(b []byte, delta uint64) []byte {
	d := int64(delta)
	return binary.AppendUvarint(b, uint64(d<<1)^uint64(d>>63))
}

// Close implements Encoder, flushing buffered output.
func (e *BinaryEncoder) Close() error {
	if e.err != nil {
		return e.err
	}
	e.err = e.w.Flush()
	return e.err
}

// binaryDecoder streams the varint framing back into events.
type binaryDecoder struct {
	br      *bufio.Reader
	version int
	// err latches the first failure: once any record fails to decode the
	// stream position is unsynchronized (and in v2 the prediction state
	// may be half-updated), so every later call must return the same
	// error rather than misparse from a random offset.
	err error
	// prev and meta mirror the encoder's prediction context (v2).
	prev tidTable[accessState]
	meta metaState
	// sawIndex records that the stream ended at a valid index block
	// (v3), for metadata inspection.
	sawIndex bool
	// win is br's buffered bytes as the fast path last peeked them, and
	// used how many of those it has decoded since: the fast path walks
	// win and advances br only when win runs out or decode takes over.
	win  []byte
	used int
}

// newBinaryDecoder validates the magic, detects the framing version and
// returns a streaming decoder.
func newBinaryDecoder(br *bufio.Reader) (*binaryDecoder, error) {
	head := make([]byte, len(binaryMagicFor(BinaryV1)))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: truncated binary magic: %w", err)
	}
	version := 0
	for v := BinaryV1; v <= binaryMaxVersion; v++ {
		if string(head) == string(binaryMagicFor(v)) {
			version = v
			break
		}
	}
	if version == 0 {
		return nil, fmt.Errorf("trace: bad binary magic %q", head)
	}
	return &binaryDecoder{br: br, version: version}, nil
}

// next returns the next event. All errors — including io.EOF — are
// terminal: the decoder latches the first one and returns it forever.
func (d *binaryDecoder) next() (Event, error) {
	var ev Event
	err := d.nextInto(&ev)
	return ev, err
}

// nextInto decodes the next event into the caller-owned *ev, with
// next's error contract; *ev is zero after an error. A v2/v3 access
// record wholly inside the read buffer takes the allocation-free fast
// path; everything else — metadata, v1, records straddling a buffer
// refill, and every malformed record — goes through decode.
func (d *binaryDecoder) nextInto(ev *Event) error {
	if d.err != nil {
		*ev = Event{}
		return d.err
	}
	if d.version >= BinaryV2 {
		if d.used == len(d.win) {
			// Peeking only what is already buffered never reads, so the
			// fast path cannot consume or reorder an error of the
			// underlying reader.
			d.sync()
			d.win, _ = d.br.Peek(d.br.Buffered())
		}
		if b := d.win[d.used:]; len(b) > 0 && b[0] == byte(KindAccess) {
			if n := d.fastAccess(b, ev); n > 0 {
				d.used += n
				return nil
			}
		}
		d.sync()
	}
	*ev = Event{}
	if err := d.decode(ev); err != nil {
		*ev = Event{}
		d.err = err
		return err
	}
	return nil
}

// sync advances br past the records the fast path decoded from win,
// which reading br again invalidates.
func (d *binaryDecoder) sync() {
	d.br.Discard(d.used)
	d.win, d.used = nil, 0
}

// fastAccess decodes the v2 access record at the head of b into *ev and
// returns its length. It returns 0, consuming nothing and leaving the
// prediction state untouched, when b ends inside the record or the
// record breaks any rule decode enforces: decode then re-reads the same
// bytes and either decodes them or reports the exact error.
func (d *binaryDecoder) fastAccess(b []byte, ev *Event) int {
	tid, i := uvarintAt(b, 1)
	if i < 0 || tid > MaxThreadID || i >= len(b) {
		return 0
	}
	flags := b[i]
	if flags&^byte(accessFlagsMask) != 0 {
		return 0
	}
	st := d.prev.at(mem.ThreadID(tid))
	next := *st
	var z uint64
	if z, i = uvarintAt(b, i+1); i < 0 {
		return 0
	}
	next.addr += unzigzag(z)
	if z, i = uvarintAt(b, i); i < 0 {
		return 0
	}
	next.ip += unzigzag(z)
	if flags&accessSameSize == 0 {
		if z, i = uvarintAt(b, i); i < 0 {
			return 0
		}
		next.size += unzigzag(z)
	}
	if flags&accessSameLat == 0 {
		if z, i = uvarintAt(b, i); i < 0 {
			return 0
		}
		next.lat += unzigzag(z)
	}
	if flags&accessSamePhase == 0 {
		if z, i = uvarintAt(b, i); i < 0 {
			return 0
		}
		next.phase += unzigzag(z)
	}
	if next.addr > 1<<62 || next.ip > MaxInstrs || next.size > 1<<16-1 ||
		next.lat > 1<<32-1 || next.phase > MaxPhaseIndex {
		return 0
	}
	*st = next
	// Zero, then store the fields: a composite literal here is built in
	// a temporary and block-copied, a fifth of the whole decode.
	*ev = Event{}
	ev.Kind = KindAccess
	ev.TID = mem.ThreadID(tid)
	ev.Write = flags&accessWrite != 0
	ev.Addr = mem.Addr(next.addr)
	ev.Size = next.size
	ev.IP = next.ip
	ev.Lat = uint32(next.lat)
	ev.Phase = int(next.phase)
	return i
}

// uvarintAt decodes the uvarint at b[i:] and returns it with the index
// just past it, or -1 when b ends inside the varint or it overflows 64
// bits. One-byte values, the common case, skip the general decoder.
func uvarintAt(b []byte, i int) (uint64, int) {
	if i < len(b) && b[i] < 0x80 {
		return uint64(b[i]), i + 1
	}
	v, n := binary.Uvarint(b[min(i, len(b)):])
	if n <= 0 {
		return 0, -1
	}
	return v, i + n
}

// unzigzag reverses appendZigzag's mapping into a wrapping delta.
func unzigzag(z uint64) uint64 { return uint64(int64(z>>1) ^ -int64(z&1)) }

// decode reads one record into *ev, which the caller has zeroed.
func (d *binaryDecoder) decode(ev *Event) error {
	kind, err := d.br.ReadByte()
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if kind == kindIndexBlock && d.version >= BinaryV3 {
		// Sequential readers skip the index: consume the payload,
		// validate the footer, and require a clean end of file — so an
		// indexed trace decodes to exactly its record stream, and any
		// truncation or trailing garbage is a terminal error.
		if err := d.skipIndexBlock(); err != nil {
			return err
		}
		d.sawIndex = true
		return io.EOF
	}
	ev.Kind = Kind(kind)
	switch ev.Kind {
	case KindProgram:
		cores, err := d.uvarint("cores", 1<<16-1)
		if err != nil {
			return err
		}
		if cores == 0 {
			return fmt.Errorf("trace: zero core count")
		}
		ev.Cores = int(cores)
		if ev.Name, err = d.string("program name"); err != nil {
			return err
		}
	case KindSymbol:
		addr, err := d.column("addr", 1<<62, &d.meta.symAddr)
		if err != nil {
			return err
		}
		ev.Addr = mem.Addr(addr)
		if ev.Size, err = d.uvarint("size", 1<<40); err != nil {
			return err
		}
		if ev.Name, err = d.string("symbol name"); err != nil {
			return err
		}
	case KindObject:
		addr, err := d.column("addr", 1<<62, &d.meta.objAddr)
		if err != nil {
			return err
		}
		ev.Addr = mem.Addr(addr)
		if ev.Size, err = d.uvarint("size", 1<<40); err != nil {
			return err
		}
		if ev.Class, err = d.uvarint("class", 1<<40); err != nil {
			return err
		}
		tid, err := d.uvarint("thread", MaxThreadID)
		if err != nil {
			return err
		}
		ev.TID = mem.ThreadID(tid)
		if ev.Seq, err = d.column("seq", 1<<62, &d.meta.objSeq); err != nil {
			return err
		}
		live, err := d.br.ReadByte()
		if err != nil {
			return fmt.Errorf("trace: truncated object: %w", err)
		}
		ev.Live = live != 0
		nframes, err := d.uvarint("frame count", MaxFrames)
		if err != nil {
			return err
		}
		if nframes > 0 {
			ev.Stack = make(heap.CallStack, 0, nframes)
		}
		for i := uint64(0); i < nframes; i++ {
			var f heap.Frame
			if f.File, err = d.string("frame file"); err != nil {
				return err
			}
			line, err := d.uvarint("frame line", 1<<31)
			if err != nil {
				return err
			}
			f.Line = int(line)
			if f.Func, err = d.string("frame func"); err != nil {
				return err
			}
			ev.Stack = append(ev.Stack, f)
		}
	case KindPhase:
		idx, err := d.uvarint("phase index", MaxPhaseIndex)
		if err != nil {
			return err
		}
		ev.Phase = int(idx)
		par, err := d.br.ReadByte()
		if err != nil {
			return fmt.Errorf("trace: truncated phase: %w", err)
		}
		ev.Parallel = par != 0
		if ev.Name, err = d.string("phase name"); err != nil {
			return err
		}
	case KindThreadEnd:
		tid, err := d.uvarint("thread id", MaxThreadID)
		if err != nil {
			return err
		}
		ev.TID = mem.ThreadID(tid)
		phase, err := d.uvarint("phase index", MaxPhaseIndex)
		if err != nil {
			return err
		}
		ev.Phase = int(phase)
		if ev.Instrs, err = d.uvarint("instrs", MaxInstrs); err != nil {
			return err
		}
	case KindNote:
		var err error
		if ev.Name, err = d.string("note"); err != nil {
			return err
		}
	case KindAccess:
		tid, err := d.uvarint("thread id", MaxThreadID)
		if err != nil {
			return err
		}
		ev.TID = mem.ThreadID(tid)
		if d.version >= BinaryV2 {
			flags, err := d.br.ReadByte()
			if err != nil {
				return fmt.Errorf("trace: truncated access: %w", err)
			}
			if flags&^byte(accessFlagsMask) != 0 {
				return fmt.Errorf("trace: unknown access flag bits %#02x", flags)
			}
			ev.Write = flags&accessWrite != 0
			st := d.prev.at(ev.TID)
			next := *st
			if err := d.accessColumns(ev, &next, flags); err != nil {
				return err
			}
			*st = next
			break
		}
		write, err := d.br.ReadByte()
		if err != nil {
			return fmt.Errorf("trace: truncated access: %w", err)
		}
		ev.Write = write != 0
		addr, err := d.uvarint("addr", 1<<62)
		if err != nil {
			return err
		}
		ev.Addr = mem.Addr(addr)
		if ev.Size, err = d.uvarint("size", 1<<16-1); err != nil {
			return err
		}
		if ev.IP, err = d.uvarint("ip", MaxInstrs); err != nil {
			return err
		}
		lat, err := d.uvarint("lat", 1<<32-1)
		if err != nil {
			return err
		}
		ev.Lat = uint32(lat)
		phase, err := d.uvarint("phase index", MaxPhaseIndex)
		if err != nil {
			return err
		}
		ev.Phase = int(phase)
	default:
		return fmt.Errorf("trace: unknown event kind %d", kind)
	}
	return nil
}

// accessColumns decodes the v2 delta-encoded access columns against the
// thread's prediction state, updating it in place. Columns whose "same"
// flag is set repeat the state value and occupy no bytes.
func (d *binaryDecoder) accessColumns(ev *Event, st *accessState, flags byte) error {
	if _, err := d.column("addr", 1<<62, &st.addr); err != nil {
		return err
	}
	if _, err := d.column("ip", MaxInstrs, &st.ip); err != nil {
		return err
	}
	if flags&accessSameSize == 0 {
		if _, err := d.column("size", 1<<16-1, &st.size); err != nil {
			return err
		}
	}
	if flags&accessSameLat == 0 {
		if _, err := d.column("lat", 1<<32-1, &st.lat); err != nil {
			return err
		}
	}
	if flags&accessSamePhase == 0 {
		if _, err := d.column("phase index", MaxPhaseIndex, &st.phase); err != nil {
			return err
		}
	}
	ev.Addr = mem.Addr(st.addr)
	ev.IP = st.ip
	ev.Size = st.size
	ev.Lat = uint32(st.lat)
	ev.Phase = int(st.phase)
	return nil
}

// column reads one bounded column value: a delta-encoded zigzag varint
// applied to *prev in v2, an absolute uvarint in v1. On success *prev is
// updated to the decoded value.
func (d *binaryDecoder) column(what string, max uint64, prev *uint64) (uint64, error) {
	if d.version < BinaryV2 {
		v, err := d.uvarint(what, max)
		if err != nil {
			return 0, err
		}
		*prev = v
		return v, nil
	}
	z, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, fmt.Errorf("trace: truncated %s delta: %w", what, err)
	}
	// Wrapping add mirrors the encoder's wrapping subtract exactly; the
	// bound check below keeps hostile deltas from smuggling in values the
	// absolute v1 column would have rejected.
	v := *prev + unzigzag(z)
	if v > max {
		return 0, fmt.Errorf("trace: %s %d exceeds limit %d", what, v, max)
	}
	*prev = v
	return v, nil
}

func (d *binaryDecoder) uvarint(what string, max uint64) (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, fmt.Errorf("trace: truncated %s: %w", what, err)
	}
	if v > max {
		return 0, fmt.Errorf("trace: %s %d exceeds limit %d", what, v, max)
	}
	return v, nil
}

func (d *binaryDecoder) string(what string) (string, error) {
	n, err := d.uvarint(what+" length", MaxStringLen)
	if err != nil {
		return "", err
	}
	// Read incrementally rather than allocating n upfront: the length is
	// attacker-controlled and the stream may be shorter.
	buf := make([]byte, 0, min(n, 4096))
	for uint64(len(buf)) < n {
		c, err := d.br.ReadByte()
		if err != nil {
			return "", fmt.Errorf("trace: truncated %s: %w", what, err)
		}
		buf = append(buf, c)
	}
	return string(buf), nil
}
