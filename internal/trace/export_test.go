package trace

import (
	"bytes"
	"hash/crc32"
	"io"
)

// NewBinaryEncoderV1 creates an encoder writing the legacy v1 framing —
// absolute-value varints, no cross-record state. Only tests write v1:
// the checked-in v1 corpus, its generator and the fuzz seeds regenerate
// v1 streams with it, and the decoder still reads them.
func NewBinaryEncoderV1(w io.Writer) *BinaryEncoder {
	return newBinaryEncoder(w, BinaryV1)
}

// NewIndexedEncoderV2 creates an encoder writing the indexed layout
// earlier builds wrote: records in arrival order, every thread's
// interleaved, under a format-2 index with one checksum per segment and
// no blocks. Only tests write it: the checked-in format-2 fixture, its
// generator, and the suites proving such traces still replay. The whole
// trace is held in memory until Close.
func NewIndexedEncoderV2(w io.Writer) Encoder {
	e := &indexedEncoderV2{w: w}
	e.flat = newBinaryEncoder(&e.flatBuf, BinaryV3)
	e.grouped = NewIndexedEncoder(&e.groupedBuf)
	return e
}

type indexedEncoderV2 struct {
	w                   io.Writer
	flatBuf, groupedBuf bytes.Buffer
	flat                *BinaryEncoder
	grouped             *IndexedEncoder
	// closed latches Close's result, as IndexedEncoder's does.
	closed   bool
	closeErr error
}

func (e *indexedEncoderV2) Encode(ev Event) error {
	if err := e.flat.Encode(ev); err != nil {
		return err
	}
	return e.grouped.Encode(ev)
}

// Close indexes the arrival-order records with the index the current
// encoder writes for the same stream. Grouping moves records only within
// a segment, so every region and segment offset, count and prediction
// snapshot carries over; only the segment checksums are recomputed, over
// the interleaved bytes.
func (e *indexedEncoderV2) Close() error {
	if !e.closed {
		e.closed, e.closeErr = true, e.close()
	}
	return e.closeErr
}

func (e *indexedEncoderV2) close() error {
	if err := e.flat.Close(); err != nil {
		return err
	}
	if err := e.grouped.Close(); err != nil {
		return err
	}
	grouped := e.groupedBuf.Bytes()
	idx, err := readIndexAt(bytes.NewReader(grouped), int64(len(grouped)))
	if err != nil {
		return err
	}
	flat := e.flatBuf.Bytes()
	idx.format = indexFormatV2
	for i := range idx.segs {
		s := &idx.segs[i]
		s.crc = crc32.Checksum(flat[s.off:s.off+s.length], castagnoli)
		s.blocks = nil
	}
	_, err = e.w.Write(appendIndexBlock(flat, idx, uint64(len(flat))))
	return err
}

// IndexFormat reports the payload format of the index of the trace at
// path: 3 for a trace this build writes, 1 or 2 for older ones.
func IndexFormat(path string) (int, error) {
	sh, err := sharedFor(path)
	if err != nil {
		return 0, err
	}
	return sh.idx.format, nil
}
