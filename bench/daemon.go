package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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

// maxConns caps the bench's HTTP connections (and request workers): the box
// has two cores and the daemon under test needs one of them.
const maxConns = 2

// procSet tracks every daemon the bench started so that any exit path —
// normal, failed check, SIGINT — kills and reaps them all.
type procSet struct {
	mu    sync.Mutex
	procs map[*daemon]struct{}
}

func (ps *procSet) add(d *daemon) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.procs == nil {
		ps.procs = map[*daemon]struct{}{}
	}
	ps.procs[d] = struct{}{}
}

func (ps *procSet) remove(d *daemon) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	delete(ps.procs, d)
}

func (ps *procSet) killAll() {
	ps.mu.Lock()
	ds := make([]*daemon, 0, len(ps.procs))
	for d := range ps.procs {
		ds = append(ds, d)
	}
	ps.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// daemon is one vmallocd subprocess on its own port.
type daemon struct {
	set    *procSet
	cmd    *exec.Cmd
	url    string
	log    *os.File
	execAt time.Time
	exited chan struct{} // closed once the process is reaped
	once   sync.Once
	peakMB float64
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds, which is racy in principle; nothing else on
// the box competes for ports while the bench runs.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs vmallocd on dir with args and a fresh port. The daemon is
// handed generated inputs only — never the bench seed.
func (e *env) startDaemon(dir string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(e.tmp, "vmallocd-*.log")
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	full := append([]string{"-dir", dir, "-addr", addr, "-log-level", "warn"}, args...)
	cmd := exec.Command(e.daemonBin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the bench itself is killed -9 the kernel takes the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{set: &e.procs, cmd: cmd, url: "http://" + addr, log: logf, execAt: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec vmallocd: %w", err)
	}
	// The reaper belongs to the daemon value: kill returns only after it has.
	go func() {
		_ = cmd.Wait() // a killed process's exit status carries no information
		close(d.exited)
	}()
	e.procs.add(d)
	return d, nil
}

// waitFor polls path until it answers 200 and returns the time since exec.
func (d *daemon) waitFor(path string, timeout time.Duration) (time.Duration, error) {
	deadline := d.execAt.Add(timeout)
	for {
		resp, err := http.Get(d.url + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.execAt), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("vmallocd %s not 200 after %v (see %s)", path, timeout, d.log.Name())
		}
		select {
		case <-d.exited:
			return 0, fmt.Errorf("vmallocd exited early (see %s)", d.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill sends SIGKILL (the workloads' crash) and reaps the process. The peak
// RSS is read first; it is the last moment /proc still has it.
func (d *daemon) kill() {
	d.once.Do(func() {
		d.peakMB = peakRSSMB(d.cmd.Process.Pid)
		_ = d.cmd.Process.Kill() // already exited is fine: the reaper has it
		<-d.exited
		d.log.Close()
		d.set.remove(d)
	})
}

// peakRSSMB reads VmHWM of pid ("self" for the bench) in MB; 0 if unreadable.
func peakRSSMB(pid int) float64 {
	name := "self"
	if pid > 0 {
		name = strconv.Itoa(pid)
	}
	f, err := os.Open("/proc/" + name + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// client is the bench's HTTP side: one transport capped at maxConns.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: maxConns, MaxIdleConnsPerHost: maxConns, MaxConnsPerHost: maxConns,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do issues one request and returns the status and body; status 0 with an
// error is a transport failure.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// getJSON fetches path and decodes a 200 body into out.
func (c *client) getJSON(path string, out any) error {
	code, data, err := c.do("GET", path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, code)
	}
	return json.Unmarshal(data, out)
}

// scrape sums every sample of the daemon's /metrics by bare family name,
// which is all a before/after counter delta needs.
func (c *client) scrape() (map[string]float64, error) {
	code, data, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	sums := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name, rest = line[:i], line[strings.LastIndexByte(line, '}')+1:]
		}
		if fields := strings.Fields(rest); len(fields) > 0 {
			if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
				sums[name] += v
			}
		}
	}
	return sums, nil
}

// dirSizeMB sums the regular files under dir.
func dirSizeMB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // files vanish under a live daemon (segment pruning); skip them
	})
	return float64(total) / (1 << 20)
}

// fsName names the filesystem under dir for the result file: fsync and
// page-cache behaviour are this filesystem's, not a device's.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
