package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEvent is one record in the span log. The field set is the Chrome
// trace-event format (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// so the same records serialize both as JSONL (one object per line) and
// as a Chrome trace array loadable in chrome://tracing or Perfetto.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"` // "X" complete span, "i" instant
	TS   int64          `json:"ts"` // microseconds since tracer start
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: "t" thread
	Args map[string]any `json:"args,omitempty"`
}

// Tracer serializes span/event records to up to two sinks: a JSONL
// writer (one event per line) and a Chrome trace-event writer (a JSON
// array). Either may be nil. All methods are safe for concurrent use;
// a nil *Tracer is a valid no-op receiver so call sites need no guards.
type Tracer struct {
	mu          sync.Mutex
	jsonl       io.Writer
	chrome      io.Writer
	chromeCount int
	start       time.Time
	pid         int
	closers     []io.Closer
}

// NewTracer builds a tracer over the given sinks (either may be nil).
func NewTracer(jsonl, chrome io.Writer) *Tracer {
	return &Tracer{jsonl: jsonl, chrome: chrome, start: time.Now(), pid: os.Getpid()}
}

// OpenTracer opens a tracer writing JSONL to jsonlPath and a Chrome
// trace array to chromePath; empty paths disable that sink. Returns nil
// (a valid no-op tracer) if both paths are empty.
func OpenTracer(jsonlPath, chromePath string) (*Tracer, error) {
	if jsonlPath == "" && chromePath == "" {
		return nil, nil
	}
	var jw, cw io.Writer
	var closers []io.Closer
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return nil, fmt.Errorf("obs: span log: %w", err)
		}
		jw = f
		closers = append(closers, f)
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			for _, c := range closers {
				c.Close()
			}
			return nil, fmt.Errorf("obs: chrome trace: %w", err)
		}
		cw = f
		closers = append(closers, f)
	}
	t := NewTracer(jw, cw)
	t.closers = closers
	return t, nil
}

// Span records a completed span from start to end on virtual track tid.
func (t *Tracer) Span(cat, name string, start, end time.Time, tid int, args map[string]any) {
	if t == nil {
		return
	}
	dur := end.Sub(start).Microseconds()
	if dur < 0 {
		dur = 0
	}
	t.emit(TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: start.Sub(t.start).Microseconds(), Dur: dur,
		PID: t.pid, TID: tid, Args: args,
	})
}

// Event records an instant event on virtual track tid.
func (t *Tracer) Event(cat, name string, tid int, args map[string]any) {
	if t == nil {
		return
	}
	t.emit(TraceEvent{
		Name: name, Cat: cat, Ph: "i",
		TS:  time.Since(t.start).Microseconds(),
		PID: t.pid, TID: tid, S: "t", Args: args,
	})
}

func (t *Tracer) emit(ev TraceEvent) {
	b, err := json.Marshal(ev) // map keys marshal sorted: deterministic
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jsonl != nil {
		t.jsonl.Write(b)
		io.WriteString(t.jsonl, "\n")
	}
	if t.chrome != nil {
		if t.chromeCount == 0 {
			io.WriteString(t.chrome, "[\n")
		} else {
			io.WriteString(t.chrome, ",\n")
		}
		t.chrome.Write(b)
		t.chromeCount++
	}
}

// Close finalizes the Chrome trace array and closes any files the
// tracer opened. Safe on a nil tracer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.chrome != nil {
		if t.chromeCount == 0 {
			io.WriteString(t.chrome, "[")
		}
		io.WriteString(t.chrome, "\n]\n")
		t.chrome = nil
	}
	t.jsonl = nil
	closers := t.closers
	t.closers = nil
	t.mu.Unlock()
	var first error
	for _, c := range closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// defaultTracer is the process-wide tracer instrumentation sites emit
// through, so subsystems need no tracer plumbed through their configs.
// When unset (the default), emission is one atomic load and a branch.
var defaultTracer atomic.Pointer[Tracer]

// SetTracer installs t as the process-wide tracer (nil to disable).
func SetTracer(t *Tracer) { defaultTracer.Store(t) }

// CurrentTracer returns the installed tracer, possibly nil (which is
// still a valid no-op receiver).
func CurrentTracer() *Tracer { return defaultTracer.Load() }

// Span records a completed span on the process-wide tracer, if any.
func Span(cat, name string, start, end time.Time, tid int, args map[string]any) {
	defaultTracer.Load().Span(cat, name, start, end, tid, args)
}

// Event records an instant event on the process-wide tracer, if any.
func Event(cat, name string, tid int, args map[string]any) {
	defaultTracer.Load().Event(cat, name, tid, args)
}

// TracingEnabled reports whether a process-wide tracer is installed,
// letting call sites skip building args maps when tracing is off.
func TracingEnabled() bool { return defaultTracer.Load() != nil }
