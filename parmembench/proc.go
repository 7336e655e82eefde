package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one child process of the fleet: a parmemd or the parmemgw.
type proc struct {
	name      string
	cmd       *exec.Cmd
	addr      string // framed-protocol listen address
	telemetry string // host:port of /metrics
	drained   chan struct{}
}

// startProc starts bin with args and waits until it has announced both
// its listen address and its telemetry address on stderr.
func startProc(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	// A benchmark killed mid-run must not leave its fleet behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, drained: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(p.drained)
		announced := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if addr, ok := strings.CutPrefix(line, name+": listening on "); ok && p.addr == "" {
				p.addr = addr
			}
			if url, ok := strings.CutPrefix(line, name+": telemetry on http://"); ok && p.telemetry == "" {
				p.telemetry, _, _ = strings.Cut(url, "/")
			}
			if p.addr != "" && p.telemetry != "" && !announced {
				announced = true
				close(ready)
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // keep the child from blocking on a full pipe
	}()
	select {
	case <-ready:
		return p, nil
	case <-p.drained:
		_ = p.cmd.Wait()
		return nil, fmt.Errorf("%s exited before announcing its addresses", name)
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not announce its addresses within 20s", name)
	}
}

// stop asks the process to drain (SIGTERM), kills it if it has not exited
// within ten seconds, and waits for it.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.drained
	}
	_ = p.cmd.Wait()
}

// scrape reads the process's /metrics as a map from series (name plus
// label set, as printed) to value.
func (p *proc) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + p.telemetry + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.name, err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries sums the series of one metric family whose label text
// contains every given fragment.
func sumSeries(m map[string]float64, family string, fragments ...string) float64 {
	var sum float64
next:
	for k, v := range m {
		if k != family && !strings.HasPrefix(k, family+"{") {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(k, f) {
				continue next
			}
		}
		sum += v
	}
	return sum
}

// makeDir creates dir (and parents).
func makeDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", dir, err)
	}
	return nil
}
