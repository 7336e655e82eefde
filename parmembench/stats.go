package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"parmem"
)

// minSamples is the smallest latency sample count a run reports: p99 of
// 1000 samples leaves ten samples beyond it. A run keeps going past its
// measured seconds until every latency series has this many, up to
// maxRunSeconds of wall time.
const (
	minSamples    = 1000
	maxRunSeconds = 120
	// runDeadline bounds every request of a fleet-mix run.
	runDeadline = 150 * time.Second
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// tally accumulates one run's end-to-end figures.
type tally struct {
	lat, delta []time.Duration
	// latAt and deltaAt hold when each sample completed, measured from
	// the start of the measured loop.
	latAt, deltaAt []time.Duration
	attempted      int64
	failed         int64
	wrong          int64
	copies         int64 // sum of TotalCopies over one pass of distinct inputs
	cycles         int64 // simulated cycles over one pass of distinct inputs
	setups         []float64
	elapsed        time.Duration
	rssMB          float64  // peak RSS of fleet processes already stopped
	cpu0           [2]int64 // machine CPU ticks (all, stolen) when measuring began
	start          time.Time
	steal          *stealSampler
}

// startClock marks the start of the measured loop and starts sampling the
// machine's steal counter.
func (t *tally) startClock() {
	t.start, t.cpu0 = time.Now(), cpuTicks()
	t.steal = startStealSampler(t.start)
}

// addLat and addDelta record one latency or delta sample.
func (t *tally) addLat(d time.Duration) {
	t.lat, t.latAt = append(t.lat, d), append(t.latAt, time.Since(t.start))
}

func (t *tally) addDelta(d time.Duration) {
	t.delta, t.deltaAt = append(t.delta, d), append(t.deltaAt, time.Since(t.start))
}

// fail records a failed or refused operation.
func (t *tally) fail(what string, err error) {
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "parmembench: failed: %s: %v\n", what, err)
	}
}

// bad records an output that fails the benchmark's correctness check.
func (t *tally) bad(err error) {
	t.wrong++
	if t.wrong <= 5 {
		fmt.Fprintf(os.Stderr, "parmembench: WRONG RESULT: %v\n", err)
	}
}

// enough reports whether the measured loop may stop at time now.
func (t *tally) enough(start time.Time, seconds float64) bool {
	el := time.Since(start).Seconds()
	if el >= maxRunSeconds {
		return true
	}
	return el >= seconds && len(t.lat) >= minSamples && len(t.delta) >= minSamples
}

// endToEnd renders the tally as the end-to-end metric set, printing the
// sample counts and correctness figures beside it.
func (t *tally) endToEnd() *result {
	ops := len(t.lat) + len(t.delta)
	rss := max(t.rssMB, peakRSSMB(nil))
	steal := t.steal.stop()
	lat := windows(t.lat, t.latAt, steal)
	delta := windows(t.delta, t.deltaAt, steal)
	fmt.Printf("latency %s\ndelta %s\n", lat, delta)
	m := map[string]metric{
		"setup_s":        {median(t.setups), "s"},
		"ops_per_s":      {float64(ops) / t.elapsed.Seconds(), "1/s"},
		"latency_p50_ms": {lat.pct(50), "ms"},
		"latency_p99_ms": {lat.pct(99), "ms"},
		"delta_p50_ms":   {delta.pct(50), "ms"},
		"delta_p99_ms":   {delta.pct(99), "ms"},
		"copies_total":   {float64(t.copies), "count"},
		"sim_cycles":     {float64(t.cycles), "cycles"},
		"peak_rss_mb":    {rss, "MB"},
	}
	fmt.Printf("samples latency=%d delta=%d measured_s=%.3f setups_s=%v\n",
		len(t.lat), len(t.delta), t.elapsed.Seconds(), t.setups)
	// CPU time the hypervisor gave to other guests while this run measured:
	// a diagnostic for run-to-run spread, not a metric of the system.
	cpu := cpuTicks()
	fmt.Printf("cpu_steal_share %.4f\n", ratio(cpu[1]-t.cpu0[1], cpu[0]-t.cpu0[0]))
	if len(t.lat) < minSamples || len(t.delta) < minSamples {
		fmt.Printf("warning: fewer than %d samples; p99 has fewer than ten samples beyond it\n", minSamples)
	}
	fmt.Printf("error_rate %.6f (%d of %d)\nwrong_results %d\n",
		ratio(t.failed, t.attempted), t.failed, t.attempted, t.wrong)
	return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// window is one run of minSamples consecutive samples (in completion
// order) and the share of the machine's CPU time stolen while it ran.
type window struct {
	ds    []time.Duration
	steal float64
}

// windowSet is a series cut into windows; kept marks the windows the
// percentiles are taken over.
type windowSet struct {
	all  []window
	kept []window
}

// windows cuts a series into consecutive windows of minSamples samples in
// completion order (the remainder joins the last window) and keeps the
// windows whose steal share is at most the median window's. On a shared
// virtual machine the hypervisor takes the CPU away in bursts; a window
// that ran through one measures the neighbours, not this system. The
// choice looks only at the steal counter, never at the latencies, so a
// slower program is slower in every kept window.
func windows(ds, at []time.Duration, steal []stealReading) windowSet {
	order := make([]int, len(ds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return at[order[a]] < at[order[b]] })
	n := len(ds) / minSamples
	if n < 2 {
		w := window{ds: ds, steal: stealShare(steal, 0, time.Duration(math.MaxInt64))}
		return windowSet{all: []window{w}, kept: []window{w}}
	}
	var set windowSet
	shares := make([]float64, n)
	for w := 0; w < n; w++ {
		end := (w + 1) * minSamples
		if w == n-1 {
			end = len(ds)
		}
		idx := order[w*minSamples : end]
		win := window{ds: make([]time.Duration, len(idx))}
		for i, j := range idx {
			win.ds[i] = ds[j]
		}
		win.steal = stealShare(steal, at[idx[0]]-ds[idx[0]], at[idx[len(idx)-1]])
		shares[w] = win.steal
		set.all = append(set.all, win)
	}
	limit := median(shares)
	for _, win := range set.all {
		if win.steal <= limit {
			set.kept = append(set.kept, win)
		}
	}
	return set
}

// pct is the median over the kept windows of each window's p-th
// percentile, in milliseconds. Every window's p99 has ten samples beyond
// it.
func (s windowSet) pct(p float64) float64 {
	vals := make([]float64, len(s.kept))
	for i, w := range s.kept {
		vals[i] = pctMS(w.ds, p)
	}
	return median(vals)
}

func (s windowSet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "windows=%d kept=%d steal_share=[", len(s.all), len(s.kept))
	for i, w := range s.all {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", w.steal)
	}
	b.WriteByte(']')
	return b.String()
}

// stealReading is one sample of the machine CPU counters.
type stealReading struct {
	at    time.Duration
	ticks [2]int64 // all, stolen
}

// stealSampler reads /proc/stat every 100 ms until stopped.
type stealSampler struct {
	start    time.Time
	mu       sync.Mutex
	readings []stealReading
	quit     chan struct{}
	done     chan struct{}
}

func startStealSampler(start time.Time) *stealSampler {
	s := &stealSampler{start: start, quit: make(chan struct{}), done: make(chan struct{})}
	s.read()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.read()
			}
		}
	}()
	return s
}

func (s *stealSampler) read() {
	r := stealReading{at: time.Since(s.start), ticks: cpuTicks()}
	s.mu.Lock()
	s.readings = append(s.readings, r)
	s.mu.Unlock()
}

// stop ends the sampling, waits for the sampler to exit, and returns the
// readings (nil for a tally that never started its clock).
func (s *stealSampler) stop() []stealReading {
	if s == nil {
		return nil
	}
	close(s.quit)
	<-s.done
	s.read()
	return s.readings
}

// stealShare is the share of machine CPU time stolen between two moments,
// from the readings that bracket them; 0 without readings.
func stealShare(rs []stealReading, from, to time.Duration) float64 {
	if len(rs) < 2 {
		return 0
	}
	i := sort.Search(len(rs), func(k int) bool { return rs[k].at > from }) - 1
	j := sort.Search(len(rs), func(k int) bool { return rs[k].at >= to })
	i = max(i, 0)
	j = min(j, len(rs)-1)
	if j <= i {
		return 0
	}
	return ratio(rs[j].ticks[1]-rs[i].ticks[1], rs[j].ticks[0]-rs[i].ticks[0])
}

// pctMS is the nearest-rank p-th percentile of ds, in milliseconds.
func pctMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p/100*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timeSetup runs set-up setupReps times, recording each duration, and
// returns the last set-up's state. Earlier states are released with done.
func timeSetup[S any](t *tally, setup func() (S, error), done func(S)) (S, error) {
	var s S
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			done(s)
		}
		start := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return s, err
		}
		t.setups = append(t.setups, time.Since(start).Seconds())
	}
	return s, nil
}

// peakRSSMB sums VmHWM (peak resident set) over this process and pids.
func peakRSSMB(pids []int) float64 {
	kb, err := vmHWMkB("self")
	if err != nil {
		fmt.Fprintf(os.Stderr, "parmembench: %v\n", err)
	}
	for _, pid := range pids {
		k, err := vmHWMkB(strconv.Itoa(pid))
		if err != nil {
			fmt.Fprintf(os.Stderr, "parmembench: %v\n", err)
		}
		kb += k
	}
	return float64(kb) / 1024
}

// cpuTicks reads the machine-wide CPU tick counters of /proc/stat: the sum
// of all states, and the steal state. It returns zeros where unreadable.
func cpuTicks() [2]int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var all, steal int64
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is counted in user
			all += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]int64{all, steal}
}

// vmHWMkB reads the VmHWM line of /proc/<pid>/status.
func vmHWMkB(pid string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss of %s: %w", pid, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				return strconv.ParseInt(fields[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("peak rss of %s: no VmHWM line", pid)
}

// instrRows converts an engine instruction stream to plain rows.
func instrRows(instrs []parmem.Instruction) [][]int {
	out := make([][]int, len(instrs))
	for i, in := range instrs {
		out[i] = []int(in)
	}
	return out
}

// toInstrs converts plain rows to an engine instruction stream.
func toInstrs(rows [][]int) []parmem.Instruction {
	out := make([]parmem.Instruction, len(rows))
	for i, row := range rows {
		out[i] = parmem.Instruction(row)
	}
	return out
}

// copyMap converts an allocation's copies to value -> module list.
func copyMap(c parmem.Copies) map[int][]int {
	m := make(map[int][]int, len(c))
	for v, set := range c {
		m[v] = set.Modules()
	}
	return m
}

// streamCycles is the issue-cycle count of one pass over a raw instruction
// stream: one cycle per word, plus one stall cycle per word whose operands
// the checker cannot fetch conflict-free. Raw streams have no program to
// run on the machine simulator, so this is their sim_cycles.
func streamCycles(instrs [][]int, copies map[int][]int, k int) int64 {
	return int64(len(instrs) + len(checkCopies(instrs, copies, k)))
}

// measure runs pass until the time is up (and, when full is set, until
// every latency series has minSamples), returning the wall time minus
// the benchmark's own checking time.
func measure(t *tally, seconds float64, full bool, pass func(int) time.Duration) time.Duration {
	start := time.Now()
	var check time.Duration
	for i := 0; ; i++ {
		check += pass(i)
		if full && t.enough(start, seconds) || !full && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	return time.Since(start) - check
}
