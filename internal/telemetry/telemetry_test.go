package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- instruments ---

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	c.Sync(42)
	if got := c.Value(); got != 42 {
		t.Fatalf("after Sync, Value = %d, want 42", got)
	}
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Max(10)
	g.Max(7) // lower: must not regress the high-water mark
	if got := g.Value(); got != 10 {
		t.Fatalf("Value = %d, want 10", got)
	}
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("after Add(-4), Value = %d, want 6", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Bucket i has inclusive upper bound 2^i: 0 and 1 land in bucket 0,
	// 3 in bucket 2 (le 4), 1<<20 in the last finite bucket, anything
	// larger in +Inf.
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1 << 20, 20}, {1<<20 + 1, histBuckets - 1},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	for i, c := range cases {
		_ = i
		if got := h.buckets[c.bucket].Load(); got == 0 {
			t.Errorf("observe(%d): bucket %d empty", c.v, c.bucket)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(cases))
	}
}

// --- nil safety and the zero-overhead contract ---

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	sp := rec.StartSpan("x", nil)
	if sp != nil {
		t.Fatal("nil recorder must give a nil span")
	}
	sp.SetAttr("k", 1)
	sp.SetAttrStr("k", "v")
	sp.End()
	rec.Counter("c").Inc()
	rec.Gauge("g").Set(1)
	rec.Histogram("h").Observe(1)
	rec.AddCollector("x", func(*Registry) {})
	if rec.OpenSpans() != 0 {
		t.Fatal("nil recorder must report 0 open spans")
	}
	if err := rec.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteMetricsText(io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(rec.MetricsSnapshot()) != 0 {
		t.Fatal("nil recorder snapshot must be empty")
	}
	var reg *Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(1)
	reg.SetHelp("c", "x")
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestNilRecorderZeroAllocs pins the disabled path's cost: the exact call
// sequence the engine runs per phase must not allocate when telemetry is
// off. This is the provable half of the zero-overhead contract (the
// steady-state allocs/op gate is the end-to-end half).
func TestNilRecorderZeroAllocs(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		sp := rec.StartSpan("phase", nil)
		sp.SetAttr("nodes", 7)
		sp.SetAttrStr("method", "backtrack")
		rec.Counter(MColorings).Inc()
		rec.Gauge(MBatchInFlight).Add(1)
		rec.Histogram(MUnassigned).Observe(3)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry path allocates %.0f per op, want 0", allocs)
	}
}

// --- concurrency: exact totals and well-formed span trees under -race ---

func TestConcurrentRecorder(t *testing.T) {
	const workers = 8
	const perWorker = 500
	ring := NewRingSink(workers*perWorker + workers + 1)
	rec := New(ring)

	root := rec.StartSpan("root", nil)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parent := rec.StartSpan("worker", root)
			for i := 0; i < perWorker; i++ {
				sp := rec.StartSpan("item", parent)
				sp.SetAttr("i", int64(i))
				rec.Counter(MColorings).Inc()
				rec.Counter(MCopiesPlaced, "method", "backtrack").Add(2)
				rec.Gauge(MBatchInFlight).Add(1)
				rec.Histogram(MAtomSize).Observe(int64(i % 32))
				rec.Gauge(MBatchInFlight).Add(-1)
				sp.End()
			}
			parent.End()
		}()
	}
	wg.Wait()
	root.End()

	if got := rec.Counter(MColorings).Value(); got != workers*perWorker {
		t.Fatalf("colorings = %d, want %d", got, workers*perWorker)
	}
	if got := rec.Counter(MCopiesPlaced, "method", "backtrack").Value(); got != 2*workers*perWorker {
		t.Fatalf("copies = %d, want %d", got, 2*workers*perWorker)
	}
	if got := rec.Gauge(MBatchInFlight).Value(); got != 0 {
		t.Fatalf("busy workers = %d, want 0 after quiesce", got)
	}
	if got := rec.Histogram(MAtomSize).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if open := rec.OpenSpans(); open != 0 {
		t.Fatalf("open spans = %d, want 0", open)
	}

	// Well-formed tree: every span's ParentID must reference a span that
	// was also emitted, ids are unique, and exactly one root exists.
	spans := ring.Spans()
	wantSpans := 1 + workers + workers*perWorker
	if len(spans) != wantSpans {
		t.Fatalf("ring has %d spans, want %d", len(spans), wantSpans)
	}
	ids := map[uint64]bool{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
	}
	roots := 0
	for _, s := range spans {
		if s.ParentID == 0 {
			roots++
			continue
		}
		if !ids[s.ParentID] {
			t.Fatalf("span %d (%s) references unknown parent %d", s.ID, s.Name, s.ParentID)
		}
	}
	if roots != 1 {
		t.Fatalf("got %d roots, want 1", roots)
	}
}

// --- registry and exposition ---

func TestPrometheusExposition(t *testing.T) {
	rec := New()
	rec.Counter(MCacheHits, "level", "assign").Add(3)
	rec.Counter(MCacheHits, "level", "atomcolor").Add(5)
	rec.Gauge(MBatchInFlight).Set(2)
	h := rec.Histogram(MPhaseMicros, "phase", "stor1")
	h.Observe(1)
	h.Observe(3)
	h.Observe(1 << 30)

	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP parmem_cache_hits_total ",
		"# TYPE parmem_cache_hits_total counter",
		`parmem_cache_hits_total{level="assign"} 3`,
		`parmem_cache_hits_total{level="atomcolor"} 5`,
		"# TYPE parmem_batch_inflight gauge",
		"parmem_batch_inflight 2",
		"# TYPE parmem_phase_duration_us histogram",
		`parmem_phase_duration_us_bucket{phase="stor1",le="1"} 1`,
		`parmem_phase_duration_us_bucket{phase="stor1",le="4"} 2`,
		`parmem_phase_duration_us_bucket{phase="stor1",le="+Inf"} 3`,
		`parmem_phase_duration_us_count{phase="stor1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Bucket counts must be cumulative and non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "parmem_phase_duration_us_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket series not cumulative at %q", line)
		}
		last = v
	}
}

func TestLabelEscaping(t *testing.T) {
	got := renderLabels([]string{"k", `a"b\c` + "\n"})
	want := `k="a\"b\\c\n"`
	if got != want {
		t.Fatalf("renderLabels = %q, want %q", got, want)
	}
}

func TestOddLabelsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list must panic")
		}
	}()
	New().Counter("x", "only-key")
}

func TestKindClashPanics(t *testing.T) {
	rec := New()
	rec.Counter("parmem_clash_test")
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash must panic")
		}
	}()
	rec.Gauge("parmem_clash_test")
}

func TestSnapshotAndText(t *testing.T) {
	rec := New()
	rec.Counter(MAtoms).Add(7)
	rec.Histogram(MAtomSize).Observe(4)
	snap := rec.MetricsSnapshot()
	if snap["parmem_atoms_total"] != 7 {
		t.Fatalf("snapshot counter = %d, want 7", snap["parmem_atoms_total"])
	}
	if snap["parmem_atom_size_count"] != 1 || snap["parmem_atom_size_sum"] != 4 {
		t.Fatalf("snapshot histogram = %v", snap)
	}
	var buf bytes.Buffer
	if err := rec.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "parmem_atom_size count=1 sum=4 mean=4.0") {
		t.Fatalf("text dump missing histogram line:\n%s", buf.String())
	}
}

func TestCollectors(t *testing.T) {
	rec := New()
	calls := []string{}
	rec.AddCollector("a", func(*Registry) { calls = append(calls, "a1") })
	rec.AddCollector("b", func(*Registry) { calls = append(calls, "b") })
	rec.AddCollector("a", func(*Registry) { calls = append(calls, "a2") }) // replaces, keeps position
	rec.WriteMetricsText(io.Discard)
	if got := strings.Join(calls, ","); got != "a2,b" {
		t.Fatalf("collector calls = %q, want \"a2,b\"", got)
	}
}

// --- sinks ---

func TestRingSinkWraps(t *testing.T) {
	ring := NewRingSink(4)
	rec := New(ring)
	for i := 0; i < 6; i++ {
		rec.StartSpan(fmt.Sprintf("s%d", i), nil).End()
	}
	spans := ring.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("s%d", i+2); s.Name != want {
			t.Fatalf("span[%d] = %s, want %s (oldest-first order)", i, s.Name, want)
		}
	}
	if ring.Total() != 6 {
		t.Fatalf("Total = %d, want 6", ring.Total())
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	clock := fakeClock()
	rec := NewClock(clock, sink)
	root := rec.StartSpan("compile", nil)
	sp := rec.StartSpan("phase", root)
	sp.SetAttr("nodes", 12)
	sp.SetAttrStr("method", "hittingset")
	sp.End()
	root.End()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first struct {
		Name   string         `json:"name"`
		ID     uint64         `json:"id"`
		Parent uint64         `json:"parent"`
		Attrs  map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	// The child ends first, so it is the first line.
	if first.Name != "phase" || first.Parent == 0 {
		t.Fatalf("first line = %+v, want ended child with parent", first)
	}
	if first.Attrs["method"] != "hittingset" || first.Attrs["nodes"] != float64(12) {
		t.Fatalf("attrs = %v", first.Attrs)
	}
}

// fakeClock returns a deterministic monotonic clock advancing 10us per
// reading.
func fakeClock() func() time.Duration {
	var t time.Duration
	return func() time.Duration {
		t += 10 * time.Microsecond
		return t
	}
}

// --- HTTP endpoint ---

func TestServe(t *testing.T) {
	rec := New()
	rec.Counter(MInstructions).Add(9)
	srv, err := rec.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics content-type = %q", ctype)
	}
	if !strings.Contains(body, "parmem_instructions_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	body, ctype = get("/debug/vars")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("vars content-type = %q", ctype)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	pm, ok := vars["parmem"].(map[string]any)
	if !ok || pm["parmem_instructions_total"] != float64(9) {
		t.Fatalf("/debug/vars parmem = %v", vars["parmem"])
	}

	if body, _ = get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profiles:\n%s", body)
	}
}

func TestServeNilRecorder(t *testing.T) {
	var rec *Recorder
	if _, err := rec.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("serving a nil recorder must fail")
	}
}

// TestServeAddrInUse checks that binding a taken port comes back as a
// distinguishable error, so callers can degrade gracefully instead of
// pattern-matching error strings.
func TestServeAddrInUse(t *testing.T) {
	rec := New()
	first, err := rec.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	_, err = rec.Serve(first.Addr())
	if err == nil {
		t.Fatal("second Serve on the same address must fail")
	}
	if !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("want errors.Is(err, ErrAddrInUse), got %v", err)
	}
}

// TestServerHandle checks that extra handlers (parmemd's /healthz and
// /readyz) can be mounted on a live telemetry endpoint.
func TestServerHandle(t *testing.T) {
	rec := New()
	srv, err := rec.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	srv.Handle("/custom", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	resp, err := http.Get("http://" + srv.Addr() + "/custom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("/custom status = %d, want %d", resp.StatusCode, http.StatusTeapot)
	}
	// The stock endpoints still work alongside the custom one.
	resp, err = http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d after Handle", resp.StatusCode)
	}
}
