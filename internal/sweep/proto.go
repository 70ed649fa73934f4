// Package sweep runs harness experiment cells as detection jobs, one
// cell per job. A JobQueue schedules the jobs' cells — deduping
// identical ones and serving the content-addressed on-disk cache — onto
// an executor: harness.RunCell in process by default, or a ProcPool
// that executes them on worker subprocesses over a length-prefixed JSON
// wire protocol on stdin/stdout pipes. The cheetahd gateway runs its
// jobs on that queue.
package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/harness"
)

// ProtoVersion is exchanged in the hello message; pool and workers
// must agree exactly, since cell payloads are schema-less JSON.
const ProtoVersion = "cheetah-sweep/v1"

// MaxFrame bounds one wire frame (and one cache file). Real cell
// results are a few KB to a few MB; the bound exists so a corrupt
// length prefix cannot make the reader allocate unboundedly.
const MaxFrame = 64 << 20

// maxFrameDigits bounds the decimal length prefix; 8 digits cover
// MaxFrame with room to reject absurd prefixes before parsing them.
const maxFrameDigits = 8

// Message types.
const (
	// MsgHello is the first frame a worker sends: its protocol version.
	MsgHello = "hello"
	// MsgRun assigns one cell (pool -> worker).
	MsgRun = "run"
	// MsgResult returns a finished cell (worker -> pool).
	MsgResult = "result"
	// MsgError reports a cell-level failure (worker -> pool); the
	// worker stays alive and the cell fails.
	MsgError = "error"
	// MsgShutdown asks a worker to exit cleanly.
	MsgShutdown = "shutdown"
)

// Message is one protocol frame. Which fields are set depends on Type.
type Message struct {
	Type string `json:"type"`
	// Proto carries the protocol version in hello messages.
	Proto string `json:"proto,omitempty"`
	// Seq pairs run frames with their result/error frames: workers echo
	// the sequence number of the run they are answering.
	Seq uint64 `json:"seq,omitempty"`
	// Cell is the assignment payload of run frames.
	Cell *harness.Cell `json:"cell,omitempty"`
	// Result is the payload of result frames.
	Result *harness.CellResult `json:"result,omitempty"`
	// Error is the diagnostic of error frames.
	Error string `json:"error,omitempty"`
}

// maxErrorLen bounds the diagnostic string of error frames.
const maxErrorLen = 1 << 14

// Validate checks the per-type required fields and delegates payload
// bounds to the harness validators. Every decoded frame passes through
// here — worker streams and cache files are external input.
func (m *Message) Validate() error {
	switch m.Type {
	case MsgHello:
		if m.Proto == "" || len(m.Proto) > 128 {
			return fmt.Errorf("sweep: hello with bad proto length %d", len(m.Proto))
		}
	case MsgRun:
		if m.Cell == nil {
			return fmt.Errorf("sweep: run frame without cell")
		}
		if err := m.Cell.Validate(); err != nil {
			return err
		}
	case MsgResult:
		if m.Result == nil {
			return fmt.Errorf("sweep: result frame without result")
		}
		if err := m.Result.Validate(); err != nil {
			return err
		}
	case MsgError:
		if m.Error == "" || len(m.Error) > maxErrorLen {
			return fmt.Errorf("sweep: error frame with bad diagnostic length %d", len(m.Error))
		}
	case MsgShutdown:
	default:
		return fmt.Errorf("sweep: unknown frame type %q", m.Type)
	}
	return nil
}

// WriteMessage frames m as a decimal byte-length line followed by the
// JSON payload and a trailing newline. The trailing newline is
// redundant for framing but keeps streams inspectable with line tools.
func WriteMessage(w io.Writer, m *Message) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if len(b) > MaxFrame {
		return fmt.Errorf("sweep: frame of %d bytes exceeds limit %d", len(b), MaxFrame)
	}
	if _, err := fmt.Fprintf(w, "%d\n", len(b)); err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = w.Write([]byte{'\n'})
	return err
}

// ReadMessage reads and validates one frame. It returns io.EOF only on
// a clean boundary (no bytes read); any partial or malformed frame is a
// non-EOF error. The length prefix is bounded before any allocation.
func ReadMessage(br *bufio.Reader) (*Message, error) {
	n, err := readFrameLen(br)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n+1) // +1 for the trailing newline
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("sweep: truncated frame: %w", err)
	}
	if payload[n] != '\n' {
		return nil, fmt.Errorf("sweep: frame missing trailing newline")
	}
	m := new(Message)
	dec := json.NewDecoder(bytes.NewReader(payload[:n]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("sweep: bad frame payload: %w", err)
	}
	// Trailing garbage after the JSON value also fails: one frame, one
	// value.
	if dec.More() {
		return nil, fmt.Errorf("sweep: trailing data in frame payload")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// readFrameLen parses the decimal length line, bounding digit count and
// value before anything is allocated.
func readFrameLen(br *bufio.Reader) (int, error) {
	var digits [maxFrameDigits]byte
	n := 0
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && n == 0 {
				return 0, io.EOF
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("sweep: truncated frame header: %w", err)
		}
		if b == '\n' {
			if n == 0 {
				return 0, fmt.Errorf("sweep: empty frame header")
			}
			break
		}
		if b < '0' || b > '9' {
			return 0, fmt.Errorf("sweep: bad byte %q in frame header", b)
		}
		if n >= len(digits) {
			return 0, fmt.Errorf("sweep: frame header exceeds %d digits", maxFrameDigits)
		}
		digits[n] = b
		n++
	}
	size := 0
	for _, d := range digits[:n] {
		size = size*10 + int(d-'0')
	}
	if size > MaxFrame {
		return 0, fmt.Errorf("sweep: frame of %d bytes exceeds limit %d", size, MaxFrame)
	}
	return size, nil
}
