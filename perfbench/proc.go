package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux configuration Go supports.
const clockTicks = 100

// proc is one CQMS child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{}
	err  error
}

// startProc launches bin with args, its output appended to logPath. The
// child is killed if the generator dies first.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	out, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop interrupts the process (a graceful shutdown flushes the log) and
// kills it if it has not exited within the grace period. It returns once the
// process has ended.
func (p *proc) stop() {
	if p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// cpu returns the process's user+system CPU time so far.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name may hold spaces and parentheses, so fields are counted from
// the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSSKiB returns the process's peak resident set (VmHWM) in KiB.
func (p *proc) peakRSSKiB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusField(string(b), "VmHWM")
}

func parseStatusField(status, field string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// selfCPU returns the generator's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitServing waits until addr accepts TCP connections, then until url
// answers 200. The servers listen only once they are ready to serve, so the
// cheap 1 ms connect poll times readiness finely without loading the
// starting process; the HTTP check confirms it.
func waitServing(ctx context.Context, p *proc, addr, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			break
		}
		if err := pollWait(ctx, p, deadline, time.Millisecond); err != nil {
			return fmt.Errorf("%s not listening on %s: %w", p.name, addr, err)
		}
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := pollWait(ctx, p, deadline, 5*time.Millisecond); err != nil {
			return fmt.Errorf("%s not serving %s: %w", p.name, url, err)
		}
	}
}

// pollWait sleeps one poll interval, failing if the process exited, the
// deadline passed or the context ended.
func pollWait(ctx context.Context, p *proc, deadline time.Time, every time.Duration) error {
	if p.exited() {
		return fmt.Errorf("exited: %v (log %s)", p.err, p.log)
	}
	if time.Now().After(deadline) {
		return fmt.Errorf("timed out (log %s)", p.log)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(every):
		return nil
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of src (one level, as a WAL directory
// holds) into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
