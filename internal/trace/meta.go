package trace

import (
	"fmt"
	"io"
	"os"
)

// Meta summarizes a trace without building a Replay: identity, framing,
// and structural counts. It exists for header inspection (`cheetah
// -trace-info`, cheetahd's upload checks), where decoding every access
// into operation lists — what ReadFile does — would cost the whole
// file's memory for an answer a scan (or, for indexed traces, the index
// alone) provides.
type Meta struct {
	// Name and Cores are the recorded program identity.
	Name  string
	Cores int
	// Framing is the detected framing ("text", "binary v2", ...).
	Framing string
	// Indexed reports a seekable v3 index block.
	Indexed bool
	// Accesses, Symbols and Objects count the trace's records.
	Accesses uint64
	Symbols  uint64
	Objects  uint64
	// Phases counts declared phases; MaxPhase is the highest phase index
	// seen on any record (-1 for a trace with no phase activity).
	Phases   int
	MaxPhase int
	// Threads counts distinct thread ids with access or thread-end
	// records.
	Threads int
	// Notes are the trace's provenance notes (`key=value` text) in
	// stream order; the importers record skip/drop tallies here.
	Notes []string
}

// ReadMeta scans a whole trace stream for its metadata, retaining
// nothing but counters: memory is O(threads + phases) however large the
// trace. It applies the same structural checks as Read (missing or
// duplicate program record, zero core count).
func ReadMeta(r io.Reader) (*Meta, error) {
	m := &Meta{MaxPhase: -1}
	d := NewDecoder(r)
	sawProgram := false
	phases := make(map[int]bool)
	threads := make(map[int64]bool)
	phase := func(idx int) {
		if idx > m.MaxPhase {
			m.MaxPhase = idx
		}
	}
	var ev Event
	for {
		err := d.nextInto(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case KindProgram:
			if sawProgram {
				return nil, fmt.Errorf("trace: duplicate #program record")
			}
			sawProgram = true
			m.Name = ev.Name
			m.Cores = ev.Cores
		case KindSymbol:
			m.Symbols++
		case KindObject:
			m.Objects++
		case KindPhase:
			if !phases[ev.Phase] {
				phases[ev.Phase] = true
				m.Phases++
			}
			phase(ev.Phase)
		case KindThreadEnd:
			threads[int64(ev.TID)] = true
			phase(ev.Phase)
		case KindAccess:
			m.Accesses++
			threads[int64(ev.TID)] = true
			phase(ev.Phase)
		case KindNote:
			m.Notes = append(m.Notes, ev.Name)
		}
	}
	if !sawProgram {
		return nil, fmt.Errorf("trace: missing #program record")
	}
	if m.Cores == 0 {
		m.Cores = 1
	}
	m.Threads = len(threads)
	m.Framing = d.Framing()
	m.Indexed = d.Indexed()
	return m, nil
}

// ReadMetaFile returns the trace's metadata, lazily: an indexed trace
// answers from its index and layout regions without touching the access
// records at all; anything else falls back to the ReadMeta scan.
func ReadMetaFile(path string) (*Meta, error) {
	if FileIsIndexed(path) {
		if sh, err := sharedFor(path); err == nil {
			m := &Meta{
				Name: sh.name, Cores: sh.cores,
				Framing: fmt.Sprintf("binary v%d", BinaryV3), Indexed: true,
				Accesses: sh.idx.accesses, Symbols: sh.symbols, Objects: sh.objects,
				Phases: len(sh.segs), MaxPhase: sh.maxPhase,
				Threads: len(threadUnion(sh)),
				Notes:   sh.notes,
			}
			return m, nil
		}
		// A broken index falls through to the sequential scan, which
		// reports the stream's own error if the records are broken too.
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMeta(f)
}

func threadUnion(sh *streamShared) map[int64]bool {
	tids := make(map[int64]bool)
	for _, ss := range sh.segs {
		for _, tid := range ss.tids {
			tids[int64(tid)] = true
		}
	}
	return tids
}
