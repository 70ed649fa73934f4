package sweep

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"

	"repro/internal/harness"
)

// Serve runs the worker side of the protocol over one transport: it
// announces itself with a hello frame, then executes run frames one at
// a time until a shutdown frame or EOF. Cell-level failures (unknown
// workload, missing trace file) are answered with error frames; the
// loop keeps serving. `cheetahd -worker` calls this on stdin/stdout;
// process-level parallelism comes from a ProcPool spawning several
// workers.
func Serve(r io.Reader, w io.Writer) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	if err := WriteMessage(bw, &Message{Type: MsgHello, Proto: ProtoVersion}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	for {
		m, err := ReadMessage(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgShutdown:
			return nil
		case MsgRun:
			reply := &Message{Seq: m.Seq}
			if res, err := harness.RunCell(*m.Cell); err != nil {
				reply.Type = MsgError
				reply.Error = err.Error()
				if len(reply.Error) > maxErrorLen {
					reply.Error = reply.Error[:maxErrorLen]
				}
			} else {
				reply.Type = MsgResult
				reply.Result = &res
			}
			if err := WriteMessage(bw, reply); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sweep: worker received unexpected %q frame", m.Type)
		}
	}
}

// procTransport is a worker subprocess seen as a transport: writes go
// to its stdin, reads come from its stdout, Close shuts stdin (the
// worker's EOF) and reaps the process, killing it if it lingers. Close
// is idempotent and safe to call concurrently — a dead worker's
// retirement and the pool's Close can race, and exec.Cmd.Wait must only
// ever run once.
type procTransport struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	io.Reader

	closeOnce sync.Once
	closeErr  error
}

func (p *procTransport) Write(b []byte) (int, error) { return p.stdin.Write(b) }

func (p *procTransport) Close() error {
	p.closeOnce.Do(func() {
		p.stdin.Close()
		done := make(chan error, 1)
		go func() { done <- p.cmd.Wait() }()
		select {
		case p.closeErr = <-done:
		case <-time.After(5 * time.Second):
			p.cmd.Process.Kill()
			p.closeErr = <-done
		}
	})
	return p.closeErr
}

// SpawnWorkerProc starts `name args...` as a worker subprocess and
// returns its stdin/stdout as a transport. extraEnv entries are
// appended to the inherited environment; stderr passes through to the
// given writer so worker diagnostics surface in the spawning process.
func SpawnWorkerProc(name string, args, extraEnv []string, stderr io.Writer) (io.ReadWriteCloser, error) {
	cmd := exec.Command(name, args...)
	cmd.Stderr = stderr
	if len(extraEnv) > 0 {
		cmd.Env = append(cmd.Environ(), extraEnv...)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &procTransport{cmd: cmd, stdin: stdin, Reader: stdout}, nil
}
