package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// lamadArgs are the daemon's flags: the fixed site, every other flag at
// its default.
var lamadArgs = []string{"-listen", "127.0.0.1:0", "-clusters", clusterFlag}

// buildLamad compiles the repository's cmd/lamad into dir.
func buildLamad(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "lamad"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lamad")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lamad in %s: %w", root, err)
	}
	return bin, nil
}

// daemon is one running lamad process.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once
	url    string
	client *http.Client
}

// addrWatcher is lamad's stdout: it hands over the address from the
// "serving placements on http://..." line once and discards the rest.
// os/exec writes to it from one goroutine.
type addrWatcher struct {
	buf  []byte
	addr chan string // nil once the address was sent
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	if w.addr == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		line, rest, ok := bytes.Cut(w.buf, []byte("\n"))
		if !ok {
			return len(p), nil
		}
		w.buf = rest
		if _, url, found := strings.Cut(string(line), "serving placements on "); found {
			w.addr <- url
			w.addr, w.buf = nil, nil
			return len(p), nil
		}
	}
}

// startDaemon execs lamad and returns once it reports its address.
func startDaemon(bin string) (*daemon, error) {
	addr := make(chan string, 1)
	cmd := exec.Command(bin, lamadArgs...)
	cmd.Stdout, cmd.Stderr = &addrWatcher{addr: addr}, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{Proxy: nil, DisableCompression: true}},
	}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case d.url = <-addr:
		return d, nil
	case err := <-d.exited:
		return nil, fmt.Errorf("lamad exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("lamad reported no address within 30s")
	}
}

// stop sends SIGTERM and waits for the process to end, killing it if it
// has not ended within 10 s.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM) // an already exited process is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// post sends one JSON body and returns the status and the full reply.
func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// probe places one small job on every cluster: until these return, lazy
// view builds are still pending, so set-up time runs until they do.
func (d *daemon) probe() error {
	for _, c := range []string{"dc", "part"} {
		status, b, err := d.post("/v1/place", []byte(`{"cluster":"`+c+`","np":64,"no_cache":true}`))
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("probe on %s: status %d: %s", c, status, b)
		}
	}
	return nil
}

// counters scrapes lamad's /metrics.json counters.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	return doc.Counters, nil
}

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from its closing parenthesis. utime and stime are fields 14
	// and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	var ticks float64
	for _, s := range f[11:13] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// peakRSSMB reads a process's VmHWM from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
