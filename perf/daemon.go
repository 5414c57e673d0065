package main

import (
	"bytes"
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
	"sync"
	"syscall"
	"time"
)

// env owns everything a run leaves behind: the temp directory under
// <checkout>/.bench_build/tmp and every child process. close is called
// on every exit path (normal return, failure, watchdog, signal).
type env struct {
	tmp string

	mu       sync.Mutex
	children []*daemon
}

func newEnv(root string) (*env, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{tmp: tmp}, nil
}

// close kills and reaps every child still running, then removes the
// temp directory. Safe to call more than once.
func (e *env) close() {
	e.mu.Lock()
	kids := e.children
	e.children = nil
	e.mu.Unlock()
	for _, d := range kids {
		d.kill()
	}
	os.RemoveAll(e.tmp)
}

// daemon is one erserve child, configured only through its command line
// and observed only through /v1 HTTP and /proc.
type daemon struct {
	cmd    *exec.Cmd
	pid    int
	base   string // http://127.0.0.1:<port>
	logf   *os.File
	exited chan struct{} // closed once Wait returned
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it; nothing else on a benchmark host
// races for it in between.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// start execs erserve with the given flags plus -addr on a free port and
// returns once /v1/readyz answers 200 — the daemon bulk-loads before it
// listens, so ready means all of the -bulk collection is resident. The
// duration runs from exec to that answer.
func (e *env) start(bin string, args []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.CreateTemp(e.tmp, "erserve-*.log")
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with us even if we are SIGKILLed. main locks its
	// goroutine to the main OS thread, which is the thread Pdeathsig
	// watches, so the signal cannot fire early.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	e.mu.Lock()
	e.children = append(e.children, d)
	e.mu.Unlock()

	probe := &http.Client{Timeout: 2 * time.Second}
	defer probe.CloseIdleConnections()
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("erserve exited during start-up: %s", d.logTail())
		default:
		}
		resp, err := probe.Get(d.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(begin), nil
			}
		}
		if time.Since(begin) > 90*time.Second {
			d.kill()
			return nil, 0, errors.New("erserve not ready after 90 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks for a graceful shutdown and escalates to SIGKILL after 10 s;
// it returns once the process has been reaped.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.logf.Close()
}

// kill is the crash: SIGKILL, then reap.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.logf.Close()
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logf.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux this runs on.
const clockTick = 100

// cpuSeconds is utime+stime of the process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// statusKB reads one "Key:  N kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	return statusField(string(b), key)
}

func statusField(status, key string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// ctxSwitches sums voluntary and involuntary context switches over every
// thread of the process (the process-level status file covers only the
// main thread).
func ctxSwitches(pid int) float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	total := 0.0
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		total += statusField(string(b), "voluntary_ctxt_switches") + statusField(string(b), "nonvoluntary_ctxt_switches")
	}
	return total
}
