package trace

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/mem"
)

// decodeEvents drains a decoder, failing the test on any non-EOF error.
func decodeEvents(t *testing.T, data []byte) []Event {
	t.Helper()
	d := NewDecoder(bytes.NewReader(data))
	var out []Event
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out = append(out, ev)
	}
}

// syntheticAccessTrace builds a deterministic, realistically-shaped event
// stream: a few threads striding through nearby addresses with slowly
// growing instruction counts — the column behaviour the v2 delta framing
// is designed around.
func syntheticAccessTrace(accesses int) []Event {
	evs := []Event{
		{Kind: KindProgram, Name: "synthetic", Cores: 8},
		{Kind: KindPhase, Phase: 0, Parallel: true, Name: "work"},
	}
	const threads = 4
	var ip [threads]uint64
	var addr [threads]uint64
	for i := range addr {
		addr[i] = 0x40000000 + uint64(i)*512
		ip[i] = 1
	}
	for i := 0; i < accesses; i++ {
		tid := i % threads
		ip[tid] += uint64(2 + i%3)
		addr[tid] += uint64((i % 5) * 4)
		if i%64 == 0 {
			addr[tid] = 0x40000000 + uint64(tid)*512
		}
		evs = append(evs, Event{
			Kind: KindAccess, TID: mem.ThreadID(1 + tid), Write: i%3 == 0,
			Addr: mem.Addr(addr[tid]), Size: 4, IP: ip[tid],
			Lat: uint32(3 + i%200), Phase: 0,
		})
	}
	for tid := 0; tid < threads; tid++ {
		evs = append(evs, Event{Kind: KindThreadEnd, TID: mem.ThreadID(1 + tid), Phase: 0, Instrs: ip[tid]})
	}
	return evs
}

// TestBinaryV2RoundTripsAndShrinks: the same event stream encoded in v1
// and v2 must decode to identical events, and the v2 form must be
// measurably smaller — the whole point of the delta framing.
func TestBinaryV2RoundTripsAndShrinks(t *testing.T) {
	evs := append(sampleEvents(), syntheticAccessTrace(20000)[2:]...)

	var v1, v2 bytes.Buffer
	e1, e2 := NewBinaryEncoderV1(&v1), NewBinaryEncoder(&v2)
	for _, ev := range evs {
		if err := e1.Encode(ev); err != nil {
			t.Fatalf("v1 encode: %v", err)
		}
		if err := e2.Encode(ev); err != nil {
			t.Fatalf("v2 encode: %v", err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	got1 := decodeEvents(t, v1.Bytes())
	got2 := decodeEvents(t, v2.Bytes())
	if !reflect.DeepEqual(got1, got2) {
		t.Fatal("v1 and v2 framings decoded to different event streams")
	}
	if !reflect.DeepEqual(got2, evs) {
		t.Fatal("v2 round trip altered the event stream")
	}
	ratio := float64(v2.Len()) / float64(v1.Len())
	t.Logf("binary framing sizes: v1 %d bytes, v2 %d bytes (ratio %.2f)", v1.Len(), v2.Len(), ratio)
	if ratio > 0.6 {
		t.Errorf("v2 framing is not measurably smaller: %d vs %d bytes (ratio %.2f)",
			v2.Len(), v1.Len(), ratio)
	}
}

// TestV1CorpusDecodesUnderV2Reader: every checked-in v1 trace must keep
// decoding under the auto-detecting reader, and re-encoding it in v2
// must round-trip the identical event stream. This is the compatibility
// gate the nightly CI job runs by name.
func TestV1CorpusDecodesUnderV2Reader(t *testing.T) {
	dir := filepath.Join("testdata", "corpus-v1")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading v1 corpus: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("v1 corpus is empty")
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) < 8 || string(data[:8]) != string(binaryMagicFor(BinaryV1)) {
				t.Fatalf("%s is not a v1 binary trace", e.Name())
			}
			evs := decodeEvents(t, data)
			if len(evs) == 0 {
				t.Fatal("corpus trace decoded to zero events")
			}
			var v2 bytes.Buffer
			enc := NewBinaryEncoder(&v2)
			for _, ev := range evs {
				if err := enc.Encode(ev); err != nil {
					t.Fatalf("re-encoding in v2: %v", err)
				}
			}
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}
			if got := decodeEvents(t, v2.Bytes()); !reflect.DeepEqual(got, evs) {
				t.Error("v2 re-encoding altered the event stream")
			}
			t.Logf("%s: v1 %d bytes -> v2 %d bytes (ratio %.2f)",
				e.Name(), len(data), v2.Len(), float64(v2.Len())/float64(len(data)))
			// The corpus also replays: a Replay must build without error.
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Errorf("v1 corpus trace does not replay: %v", err)
			}
		})
	}
}

// TestBinaryDecodeErrorsAreSticky is the decoder-robustness regression
// test: after a bounds error mid-record the inner decoder must return
// the same error forever, even when the bytes that follow would parse as
// a valid record from the unsynchronized offset.
func TestBinaryDecodeErrorsAreSticky(t *testing.T) {
	for _, version := range []int{BinaryV1, BinaryV2} {
		t.Run(map[int]string{BinaryV1: "v1", BinaryV2: "v2"}[version], func(t *testing.T) {
			// A poisoned access record: the addr column exceeds its limit
			// mid-record, leaving the ip/size/lat/phase columns unread.
			b := append([]byte{}, binaryMagicFor(version)...)
			b = append(b, byte(KindAccess))
			b = appendUvarintForTest(b, 1) // tid
			b = append(b, 1)               // write
			if version == BinaryV2 {
				b = appendZigzag(b, 1<<63) // addr delta -> 2^63 > 2^62
			} else {
				b = appendUvarintForTest(b, 1<<63) // addr
			}
			// Followed by bytes that decode as a perfectly valid thread-end
			// record — exactly what a non-sticky decoder would misparse.
			b = append(b, byte(KindThreadEnd))
			b = appendUvarintForTest(b, 1)  // tid
			b = appendUvarintForTest(b, 0)  // phase
			b = appendUvarintForTest(b, 42) // instrs

			d, err := newBinaryDecoder(bufio.NewReader(bytes.NewReader(b)))
			if err != nil {
				t.Fatalf("magic rejected: %v", err)
			}
			_, err1 := d.next()
			if err1 == nil {
				t.Fatal("poisoned record decoded without error")
			}
			ev, err2 := d.next()
			if err2 == nil {
				t.Fatalf("decoder resynchronized after an error and produced %+v", ev)
			}
			if err2 != err1 {
				t.Errorf("second error %v is not the latched first error %v", err2, err1)
			}
			if _, err3 := d.next(); err3 != err1 {
				t.Errorf("third call returned %v, want the latched error", err3)
			}
		})
	}
}

// TestTextDecodeErrorsAreSticky: the line decoder must latch a parse
// error too, not skip the bad line and resume on the next one.
func TestTextDecodeErrorsAreSticky(t *testing.T) {
	in := "#cheetah-trace v1\n" +
		"#program 4 x\n" +
		"1 q 0x40 4 1 0 0\n" + // bad op
		"1 w 0x40 4 1 0 0\n" // valid line a lax decoder would resume on
	next, err := newTextDecoder(bufio.NewReader(strings.NewReader(in)))
	if err != nil {
		t.Fatalf("header rejected: %v", err)
	}
	if _, err := next(); err != nil {
		t.Fatalf("#program: %v", err)
	}
	_, err1 := next()
	if err1 == nil {
		t.Fatal("bad line decoded without error")
	}
	if _, err2 := next(); err2 != err1 {
		t.Errorf("second call returned %v, want the latched error %v", err2, err1)
	}
}

// TestBinaryV2DeltaWraparound: deltas are wrapping by design; a delta
// that wraps the column past its limit must be rejected, and legitimate
// backwards movement (a thread revisiting a lower address) must decode
// exactly.
func TestBinaryV2DeltaWraparound(t *testing.T) {
	evs := []Event{
		{Kind: KindProgram, Name: "wrap", Cores: 2},
		{Kind: KindPhase, Phase: 0, Parallel: true, Name: "w"},
		{Kind: KindAccess, TID: 1, Addr: 0x40001000, Size: 4, IP: 10, Lat: 5, Phase: 0},
		{Kind: KindAccess, TID: 1, Addr: 0x40000004, Size: 8, IP: 12, Lat: 3, Phase: 0},
		{Kind: KindAccess, TID: 1, Addr: 0x40001000, Size: 4, IP: 900, Lat: 3, Phase: 0},
	}
	var buf bytes.Buffer
	enc := NewBinaryEncoder(&buf)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := decodeEvents(t, buf.Bytes()); !reflect.DeepEqual(got, evs) {
		t.Errorf("backwards-moving columns did not round-trip:\n%+v\nwant\n%+v", got, evs)
	}

	// A crafted negative delta from the zero state wraps to 2^64-4: the
	// bound check must reject it, not hand the replayer a wild address.
	b := append([]byte{}, binaryMagicFor(BinaryV2)...)
	b = append(b, byte(KindAccess))
	b = appendUvarintForTest(b, 1)          // tid
	b = append(b, 0)                        // read
	b = appendZigzag(b, 0xFFFFFFFFFFFFFFFC) // addr delta -4 from 0
	b = appendZigzag(b, 1)                  // ip
	b = appendZigzag(b, 4)                  // size
	b = appendZigzag(b, 0)                  // lat
	b = appendZigzag(b, 0)                  // phase
	d := NewDecoder(bytes.NewReader(b))
	if _, err := d.Next(); err == nil {
		t.Error("decoder accepted a wrapped-negative address")
	}
}

// TestDecodeIndependentOfReadChunking: the access fast path decodes only
// records wholly inside the read buffer and leaves the rest to the
// general decoder, so readers that return one byte, or half of what is
// asked, per call must decode to exactly the events a whole-buffer read
// does, ending at the index block just the same.
func TestDecodeIndependentOfReadChunking(t *testing.T) {
	_, data := synthTrace(t, SynthConfig{Accesses: 1 << 14, Threads: 8, Phases: 4})
	want := decodeEvents(t, data)
	for name, r := range map[string]io.Reader{
		"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
		"half":     iotest.HalfReader(bytes.NewReader(data)),
	} {
		d := NewDecoder(r)
		var got []Event
		for {
			ev, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			got = append(got, ev)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s reads decoded %d events differing from whole-buffer reads (%d)", name, len(got), len(want))
		}
		if !d.Indexed() {
			t.Errorf("%s reads did not end at the index block", name)
		}
	}
}
