package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// BuildServer compiles cmd/xqserve of the repository at root into
// .bench_build/ there and returns the binary's path.
func BuildServer(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "xqserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/xqserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building xqserve: %w\n%s", err, out)
	}
	return bin, nil
}

// Server is a running xqserve subprocess.
type Server struct {
	// URL is the server's base URL, http://127.0.0.1:<port>.
	URL string
	// Setup is the time from process start to the first /healthz 200:
	// document generation, bulkload of every loaded system with its text
	// index, and plan-cache compilation.
	Setup time.Duration

	cmd    *exec.Cmd
	log    *os.File
	exited chan error
}

// StartServer runs bin with default flags plus the address, factor and
// systems, appends its output to logPath, and waits until /healthz
// answers 200. On any error the process is gone when it returns.
func StartServer(ctx context.Context, bin string, factor float64, systems, logPath string) (*Server, error) {
	// Reserve a free port by listening and closing: xqserve takes a fixed
	// address and prints it before binding, so it cannot choose one itself.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-factor", strconv.FormatFloat(factor, 'g', -1, 64), "-systems", systems)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("bench: starting xqserve: %w", err)
	}
	s := &Server{URL: "http://" + addr, cmd: cmd, log: logFile, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()

	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(120 * time.Second)
	for {
		if resp, err := client.Get(s.URL + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.Setup = time.Since(start)
				return s, nil
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				s.kill()
				return nil, fmt.Errorf("bench: xqserve /healthz answered %d (see %s)", resp.StatusCode, logPath)
			}
		}
		select {
		case err := <-s.exited:
			logFile.Close()
			return nil, fmt.Errorf("bench: xqserve exited while loading: %v (see %s)", err, logPath)
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-deadline:
			s.kill()
			return nil, fmt.Errorf("bench: xqserve not ready after 120s (see %s)", logPath)
		case <-tick.C:
		}
	}
}

func (s *Server) kill() {
	_ = s.cmd.Process.Kill() // the process may already be gone
	<-s.exited
	s.log.Close()
}

// Stop interrupts the server and waits for it. xqserve must shut down
// cleanly on SIGINT: a non-zero exit, or none within 15 s, is an error
// (and the process is killed).
func (s *Server) Stop() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		<-s.exited
		return fmt.Errorf("bench: interrupting xqserve: %w", err)
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("bench: xqserve did not exit cleanly on SIGINT: %w", err)
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("bench: xqserve still running 15s after SIGINT; killed")
	}
}

// CPU returns the CPU time the server has used so far, user plus system,
// from /proc/<pid>/stat. The kernel counts it in clock ticks of 10 ms
// (USER_HZ is 100 on every Linux platform Go supports).
func (s *Server) CPU() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is in parentheses and may hold spaces;
	// utime and stime are fields 14 and 15, so 12 and 13 after it.
	rest := string(data)
	rest = rest[strings.LastIndexByte(rest, ')')+1:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad /proc stat line %q", data)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// PeakRSS returns the server's peak resident set size in bytes (VmHWM of
// /proc/<pid>/status).
func (s *Server) PeakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb * 1024, err
			}
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}
