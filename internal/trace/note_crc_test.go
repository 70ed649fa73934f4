package trace

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/exec"
)

// noteEvents is an indexable stream carrying provenance notes of the
// shape the PMU importers emit.
func noteEvents() []Event {
	evs := indexableEvents()
	notes := []Event{
		{Kind: KindNote, Name: "import.source=perf-script"},
		{Kind: KindNote, Name: "import.skipped_kernel=3"},
	}
	return append(append([]Event{evs[0]}, notes...), evs[1:]...)
}

// TestNoteRoundTrip: #note records must survive every framing
// byte-exactly, surface through ReadMeta, and stay invisible to replay.
func TestNoteRoundTrip(t *testing.T) {
	evs := noteEvents()
	encodings := map[string][]byte{}

	var text bytes.Buffer
	enc := Encoder(NewTextEncoder(&text))
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			t.Fatalf("text encode: %v", err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	encodings["text"] = text.Bytes()

	var bin bytes.Buffer
	enc = NewBinaryEncoder(&bin)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			t.Fatalf("binary encode: %v", err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	encodings["binary"] = bin.Bytes()
	encodings["indexed"] = indexedBytes(t, evs)

	wantNotes := []string{"import.source=perf-script", "import.skipped_kernel=3"}
	for name, data := range encodings {
		got := decodeEvents(t, data)
		if !reflect.DeepEqual(got, evs) {
			t.Errorf("%s framing did not round-trip the noted stream", name)
		}
		m, err := ReadMeta(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s ReadMeta: %v", name, err)
		}
		if !reflect.DeepEqual(m.Notes, wantNotes) {
			t.Errorf("%s Notes = %v, want %v", name, m.Notes, wantNotes)
		}
		// Notes are provenance, not semantics: replay must build the
		// same program as the unnoted stream.
		if _, err := Read(bytes.NewReader(data)); err != nil {
			t.Errorf("%s Read with notes: %v", name, err)
		}
	}

	// The index-only metadata path must surface the notes without a
	// record scan, and streaming replay must validate a noted trace.
	path := writeTemp(t, encodings["indexed"])
	m, err := ReadMetaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Indexed {
		t.Error("ReadMetaFile did not take the indexed path")
	}
	if !reflect.DeepEqual(m.Notes, wantNotes) {
		t.Errorf("indexed ReadMetaFile Notes = %v, want %v", m.Notes, wantNotes)
	}
	if err := ValidateStream(path); err != nil {
		t.Errorf("ValidateStream on noted trace: %v", err)
	}
}

// TestPayloadCRCFaultInjection: a flipped record byte under a fully
// valid index must fail streaming load with CorruptPayloadError — the
// satellite guarantee that index checksums extend to the payloads. One
// corruption per span kind: an access record (segment CRC) and a layout
// record (region CRC).
func TestPayloadCRCFaultInjection(t *testing.T) {
	base := indexedBytes(t, indexableEvents())
	idx, err := readIndexAt(bytes.NewReader(base), int64(len(base)))
	if err != nil {
		t.Fatal(err)
	}
	if !idx.hasCRC {
		t.Fatal("IndexedEncoder wrote an index without payload CRCs")
	}

	flip := func(off uint64) []byte {
		data := append([]byte(nil), base...)
		data[off] ^= 0x40
		return data
	}
	cases := map[string]uint64{
		// Mid-segment: inside the phase-1 record span, past its first
		// record so the phase header still parses.
		"segment record": idx.segs[1].off + idx.segs[1].length/2,
		// Layout region: after the magic header, before the first
		// segment (the program/symbol/object records).
		"layout record": idx.segs[0].off - 2,
	}
	for name, off := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeTemp(t, flip(off))
			err := ValidateStream(path)
			if err == nil {
				t.Fatal("ValidateStream accepted a corrupt payload under a valid index")
			}
			var ce *CorruptPayloadError
			if !errors.As(err, &ce) {
				t.Fatalf("error is %T (%v), want CorruptPayloadError", err, err)
			}
			if ce.Want == ce.Got {
				t.Errorf("CorruptPayloadError reports matching CRCs: %+v", ce)
			}
		})
	}

	// Streamed replay verifies a segment's checksum before it decodes a
	// record, so a corrupt phase fails every body of the phase with the
	// checksum error, none of its accesses reaches the engine, and no
	// goroutine outlives the failed run.
	t.Run("streamed replay", func(t *testing.T) {
		_, data := synthTrace(t, SynthConfig{Accesses: 1 << 14, Threads: 4, Phases: 4})
		idx, err := readIndexAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		seg := &idx.segs[2]
		data[seg.off+seg.length/2] ^= 0x40
		path := writeTemp(t, data)
		ce := &CorruptPayloadError{Path: path, Phase: seg.phase, Off: seg.off, Want: seg.crc,
			Got: crc32.Checksum(data[seg.off:seg.off+seg.length], castagnoli)}
		want := fmt.Sprintf("trace: streaming replay of %s: loading phase %d: %v", path, seg.phase, ce)

		before := runtime.NumGoroutine()
		probe := &phaseCounter{accesses: make(map[int]int)}
		runPanic, bodyPanics := replayStreamed(t, preparedStream(t, path), probe)
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
		if n := probe.accesses[seg.phase]; n != 0 {
			t.Errorf("the engine ran %d accesses of the corrupt phase %d", n, seg.phase)
		}
		if probe.accesses[seg.phase-1] == 0 {
			t.Errorf("no access of phase %d, which precedes the corrupt one, reached the engine", seg.phase-1)
		}
		awaitGoroutines(t, before)
	})

	// The same corrupt files still carry an intact index, so the cheap
	// index-only reads must keep working — corruption is a payload-read
	// failure, not an open failure.
	path := writeTemp(t, flip(idx.segs[1].off+idx.segs[1].length/2))
	if _, err := readIndexAt(bytes.NewReader(flip(idx.segs[1].off)), int64(len(base))); err != nil {
		t.Errorf("index block no longer parses after payload-only corruption: %v", err)
	}
	if !FileIsIndexed(path) {
		t.Error("FileIsIndexed = false after payload-only corruption")
	}
}
