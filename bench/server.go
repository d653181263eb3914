package main

// The system under test: the real cmd/ogpaserver binary, built from the
// checkout and run as a child process on a free loopback port.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ogpa/internal/server"
)

// buildServer compiles cmd/ogpaserver into dir. With a warm build cache
// this is a no-op link check.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "ogpaserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ogpaserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ogpaserver: %w\n%s", err, out)
	}
	return bin, nil
}

type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{}
	// startup is exec to the first 200 from GET /stats.
	startup time.Duration
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer execs the binary and waits until it answers GET /stats.
func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, errors.Join(err, logf.Close())
	}
	go func() {
		//lint:ignore droppederr the exit status of a server the benchmark signals is not a result; readiness and the answer checks are
		_ = cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/stats")
		if err == nil {
			status := resp.StatusCode
			_, cerr := io.Copy(io.Discard, resp.Body)
			cerr = errors.Join(cerr, resp.Body.Close())
			if status == http.StatusOK && cerr == nil {
				s.startup = time.Since(start)
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, errors.Join(fmt.Errorf("ogpaserver exited during start-up; see %s", logPath), logf.Close())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("ogpaserver not ready after 60s; see %s", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be gone: a crash, as far
// as the data directory is concerned. The OS page cache survives it, so a
// restart checks the commit protocol, not the storage device.
func (s *serverProc) kill() {
	//lint:ignore droppederr the process may already have exited
	_ = s.cmd.Process.Kill()
	<-s.exited
	//lint:ignore droppederr append-only diagnostics log
	_ = s.log.Close()
}

// stop shuts the server down the way an operator would (SIGTERM, graceful
// drain, final checkpoint on a durable KB).
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.kill()
		return err
	}
	select {
	case <-s.exited:
		return s.log.Close()
	case <-time.After(20 * time.Second):
		s.kill()
		return fmt.Errorf("ogpaserver ignored SIGTERM for 20s")
	}
}

// peakRSSMB reads the server's high-water resident set (VmHWM).
func (s *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// client is one closed-loop caller: one connection, one request at a time.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body is
// valid until the next call.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if err = errors.Join(err, resp.Body.Close()); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// getJSON fetches and decodes one JSON document, requiring a 200.
func (c *client) getJSON(ctx context.Context, method, path string, body []byte, into any) error {
	status, resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	if err := json.Unmarshal(resp, into); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

func (c *client) stats(ctx context.Context) (server.StatsResponse, error) {
	var st server.StatsResponse
	err := c.getJSON(ctx, http.MethodGet, "/stats", nil, &st)
	return st, err
}

func queryBody(text, baseline string) ([]byte, error) {
	return json.Marshal(server.QueryRequest{Query: text, Baseline: baseline})
}
