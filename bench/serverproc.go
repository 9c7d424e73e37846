package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server/client"
)

// serverArgs are the lppm-serve flags every stream workload runs with:
// loopback listeners on ephemeral ports, two shards (one per core of the
// reference host), the 32-record window, no admission cap, the fixed seed
// the output oracle assumes, and GEO-I at ε = 0.01.
func serverArgs(journalDir string) []string {
	args := []string{
		"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-shards", "2", "-flush", "32", "-max-streams", "-1",
		"-seed", strconv.Itoa(serverSeed),
		"-mech", "geoi", "-set", "epsilon=" + strconv.FormatFloat(geoiEpsilon, 'g', -1, 64),
	}
	if journalDir != "" {
		args = append(args, "-journal", journalDir)
	}
	return args
}

// lineWatch is the server's stderr: it finds the serving and admin
// addresses in the startup log lines and keeps the last lines for error
// reports.
type lineWatch struct {
	mu      sync.Mutex
	partial []byte
	tail    []string
	addr    string
	admin   string
	ready   chan struct{}
	once    sync.Once
}

func newLineWatch() *lineWatch { return &lineWatch{ready: make(chan struct{})} }

// Write implements io.Writer for exec.Cmd.Stderr.
func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partial = append(w.partial, p...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			break
		}
		w.line(string(w.partial[:i]))
		w.partial = w.partial[i+1:]
	}
	return len(p), nil
}

// line handles one complete log line (caller holds mu).
func (w *lineWatch) line(s string) {
	if len(w.tail) == 20 {
		w.tail = w.tail[1:]
	}
	w.tail = append(w.tail, s)
	switch {
	case strings.Contains(s, "msg=listening"):
		w.addr = logField(s, "addr")
	case strings.Contains(s, `msg="admin plane up"`):
		w.admin = strings.TrimSuffix(logField(s, "url"), "/metrics")
	}
	if w.addr != "" && w.admin != "" {
		w.once.Do(func() { close(w.ready) })
	}
}

// logField extracts key=value from an slog text line.
func logField(line, key string) string {
	i := strings.Index(line, " "+key+"=")
	if i < 0 {
		return ""
	}
	v := line[i+len(key)+2:]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return strings.Trim(v, `"`)
}

// addrs returns the serving address and the admin-plane URL.
func (w *lineWatch) addrs() (addr, admin string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.addr, w.admin
}

func (w *lineWatch) lastLines() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.tail, "\n")
}

// serverProc is one running lppm-serve process.
type serverProc struct {
	cmd   *exec.Cmd
	log   *lineWatch
	base  string // serving URL
	admin string // admin-plane URL
	setup time.Duration

	exited  chan struct{}
	waitErr error
	once    sync.Once
	stopErr error
}

// startServer execs bin and returns once GET /healthz answers 200 through
// the public client; setup is the time from exec to that answer.
func startServer(ctx context.Context, bin string, args []string) (*serverProc, error) {
	p := &serverProc{log: newLineWatch(), exited: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = p.log
	// The server must not outlive the benchmark, whatever ends it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case <-p.log.ready:
	case <-p.exited:
		return nil, fmt.Errorf("lppm-serve exited during startup (%v):\n%s", p.waitErr, p.log.lastLines())
	case <-deadline.C:
		return nil, errors.Join(errors.New("lppm-serve did not report its addresses within 30s"), p.stop())
	case <-ctx.Done():
		return nil, errors.Join(ctx.Err(), p.stop())
	}
	addr, admin := p.log.addrs()
	p.base, p.admin = "http://"+addr, admin
	cl := client.New(p.base)
	poll := time.NewTimer(0)
	defer poll.Stop()
	for {
		select {
		case <-poll.C:
		case <-deadline.C:
			return nil, errors.Join(errors.New("lppm-serve not healthy within 30s"), p.stop())
		case <-ctx.Done():
			return nil, errors.Join(ctx.Err(), p.stop())
		}
		if cl.Health(ctx) == nil {
			p.setup = time.Since(start)
			return p, nil
		}
		poll.Reset(time.Millisecond)
	}
}

// pid returns the server's process id.
func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// stop sends SIGTERM — the graceful drain — and waits for the process to
// exit, killing it after a minute. Idempotent; returns the drain's error.
func (p *serverProc) stop() error {
	p.once.Do(func() {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			p.stopErr = err
		}
		kill := time.NewTimer(time.Minute)
		defer kill.Stop()
		select {
		case <-p.exited:
		case <-kill.C:
			p.stopErr = errors.Join(p.stopErr, errors.New("lppm-serve ignored SIGTERM for a minute"), p.cmd.Process.Kill())
			<-p.exited
		}
		if p.waitErr != nil {
			p.stopErr = errors.Join(p.stopErr, fmt.Errorf("lppm-serve: %w\n%s", p.waitErr, p.log.lastLines()))
		}
	})
	return p.stopErr
}

// adminSeries is one series of GET /metrics.json.
type adminSeries struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
	Hist   *struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histogram"`
}

// adminSnap is one /metrics.json scrape.
type adminSnap []adminSeries

// parseAdmin decodes a /metrics.json body.
func parseAdmin(body []byte) (adminSnap, error) {
	var s adminSnap
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("parse /metrics.json: %w", err)
	}
	return s, nil
}

// sum adds up every series called name whose labels include match; for a
// histogram it adds the histogram's sum (field "sum") or count ("count").
func (s adminSnap) sum(name string, match map[string]string, field string) float64 {
	var total float64
	for _, m := range s {
		if m.Name != name || !labelsMatch(m.Labels, match) {
			continue
		}
		switch {
		case m.Hist == nil:
			total += m.Value
		case field == "count":
			total += m.Hist.Count
		default:
			total += m.Hist.Sum
		}
	}
	return total
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// delta returns after − before for one series selection.
func delta(before, after adminSnap, name string, match map[string]string, field string) float64 {
	return after.sum(name, match, field) - before.sum(name, match, field)
}

// scrapeAdmin fetches the admin plane's /metrics.json.
func scrapeAdmin(ctx context.Context, hc *http.Client, admin string) (adminSnap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, admin+"/metrics.json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("admin /metrics.json answered %d", resp.StatusCode)
	}
	return parseAdmin(buf.Bytes())
}

// procStatusKB reads a kB field (VmHWM, VmRSS) of /proc/<pid>/status;
// pid 0 means this process.
func procStatusKB(pid int, field string) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("%s has no %s", path, field)
}

// resetPeakRSS returns freed memory to the system and restarts this
// process's VmHWM from its current resident set (Linux 4.0+), so a peak
// read later covers only what ran in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times — fixed at
// 100 by the Linux ABI.
const clockTicks = 100

// procCPU returns user+system CPU seconds of pid from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields overall, the 12th and 13th after ")".
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}
