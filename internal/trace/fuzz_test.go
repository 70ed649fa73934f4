package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/heap"
	"repro/internal/symtab"
)

// fuzzSeeds returns representative valid traces in both framings plus
// classic near-valid corruptions; checked-in seeds live under
// testdata/fuzz. The decoders' contract under fuzzing: malformed input
// must produce an error, never a panic, and decoding must terminate.
func fuzzSeeds(t interface{ Helper() }) [][]byte {
	t.Helper()
	textSeed := []byte("#cheetah-trace v1\n" +
		"#program 8 seed workload\n" +
		"#symbol 0x10000040 64 array\n" +
		"#object 0x40000000 24 32 1 1 1 app.c:42:main,lib.c:7:alloc\n" +
		"#object 0x40010000 16 16 0 2 0 -\n" +
		"#phase 0 s init\n" +
		"0 w 0x10000040 4 1 3 0\n" +
		"#threadend 0 0 5\n" +
		"#phase 1 p work\n" +
		"1 r 0x40000000 4 10 3 1\n" +
		"1 w 0x40000004 8 12 180 1\n" +
		"2 w 0x40000008 4 11 200 1\n" +
		"#threadend 1 1 20\n" +
		"#threadend 2 1 15\n")
	encode := func(enc Encoder) []byte {
		for _, ev := range sampleEvents() {
			if err := enc.Encode(ev); err != nil {
				panic(err)
			}
		}
		if err := enc.Close(); err != nil {
			panic(err)
		}
		return nil
	}
	var bin, binV1 bytes.Buffer
	encode(NewBinaryEncoder(&bin))
	encode(NewBinaryEncoderV1(&binV1))
	binSeed := bin.Bytes()
	truncated := append([]byte{}, binSeed[:len(binSeed)-3]...)
	flipped := append([]byte{}, binSeed...)
	flipped[len(flipped)/2] ^= 0xFF

	// An indexed v3 trace plus the classic corruptions of its index: the
	// footer, offsets and payload are all attacker-controlled inputs.
	var v3 bytes.Buffer
	idxEnc := NewIndexedEncoder(&v3)
	for _, ev := range indexableEvents() {
		if err := idxEnc.Encode(ev); err != nil {
			panic(err)
		}
	}
	if err := idxEnc.Close(); err != nil {
		panic(err)
	}
	idxSeed := v3.Bytes()
	idxTruncated := append([]byte{}, idxSeed[:len(idxSeed)-footerSize/2]...)
	idxFlipped := append([]byte{}, idxSeed...)
	idxFlipped[len(idxFlipped)-footerSize-2] ^= 0xFF // inside the payload
	idxBadOffset := append([]byte{}, idxSeed...)
	idxBadOffset[len(idxBadOffset)-footerSize] ^= 0xFF

	return [][]byte{
		textSeed,
		binSeed,
		binV1.Bytes(),
		truncated,
		flipped,
		idxSeed,
		idxTruncated,
		idxFlipped,
		idxBadOffset,
		[]byte("#cheetah-trace v1\n"),
		[]byte("#cheetah-trace v2\n"),
		[]byte{0x00},
		[]byte("1 r 0x10 4 1 0 0\n"),
	}
}

// FuzzDecode drives the framing-autodetecting decoder: every input must
// either decode to a finite event stream or error — never panic or hang.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data))
		for {
			_, err := d.Next()
			if err == io.EOF || err != nil {
				return
			}
		}
	})
}

// FuzzIndexOpen drives the seekable-index reader and the windowed
// streaming replayer: arbitrary bytes on disk must either open cleanly
// or error — and when they do open, preparing and loading every phase
// window must never panic, because the index payload (offsets, counts,
// prediction snapshots) is untrusted input that the loader seeks by.
func FuzzIndexOpen(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	// Thread claims that wrap uint64 back to their segment's claim:
	// validation must refuse them before any op list is sized from them.
	f.Add(reindex(f, indexedBytes(f, indexableEvents()), wrapThreadClaims))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.trace")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStream(path)
		if err != nil {
			return
		}
		if err := s.Prepare(heap.New(heap.Config{}), symtab.New(symtab.Config{})); err != nil {
			return
		}
		for si := range s.sh.segs {
			// Window loads may fail (the records under a syntactically
			// valid index can still be garbage) but must not panic.
			_ = s.verifyPhase(si)
		}
	})
}

// FuzzRead drives the full replay construction (decode, semantic
// validation, program assembly): malformed traces must error cleanly,
// and well-formed ones must yield a buildable Replay.
func FuzzRead(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if rp.Cores <= 0 {
			t.Errorf("accepted trace with %d cores", rp.Cores)
		}
	})
}
