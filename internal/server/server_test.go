package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"parmem"
	"parmem/internal/faultinject"
	"parmem/internal/telemetry"
)

const testSrc = `
program quick;
var a, b, c: int;
begin
  a := 2;
  b := 3;
  c := a * b + a;
end
`

// newTestServer starts a server on a free port with test-friendly bounds
// and registers cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = 500 * time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialTest(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPingCompileAssignBatch(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialTest(t, s)
	ctx := context.Background()

	resp, err := c.Ping(ctx)
	if err != nil || resp.Code != CodeOK || resp.Draining {
		t.Fatalf("ping: %+v, %v", resp, err)
	}

	resp, err = c.Compile(ctx, CompileRequest{Src: testSrc})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeOK || resp.Result == nil || resp.Result.Values == 0 || resp.Result.Words == 0 {
		t.Fatalf("compile: %+v", resp)
	}

	resp, err = c.Assign(ctx, AssignRequest{
		Instrs: [][]int{{0, 1, 2}, {1, 2, 3}, {0, 3}},
		K:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeOK || resp.Result == nil || len(resp.Result.Copies) == 0 {
		t.Fatalf("assign: %+v", resp)
	}
	// The returned placement must actually be conflict-free.
	copies := parmem.Copies{}
	for id, mods := range resp.Result.Copies {
		for _, m := range mods {
			copies[id] = copies[id].Add(m)
		}
	}
	for _, word := range [][]int{{0, 1, 2}, {1, 2, 3}, {0, 3}} {
		if !parmem.ConflictFree(word, copies) {
			t.Fatalf("returned allocation leaves %v conflicting", word)
		}
	}

	resp, err = c.Batch(ctx, BatchRequest{Srcs: []string{testSrc, testSrc, "program broken"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeOK || len(resp.Items) != 3 {
		t.Fatalf("batch: %+v", resp)
	}
	if resp.Items[0].Code != CodeOK || resp.Items[1].Code != CodeOK {
		t.Fatalf("batch items 0/1 should compile: %+v", resp.Items)
	}
	if resp.Items[2].Code != CodeInvalidArgument {
		t.Fatalf("batch item 2 is a parse error, got %+v", resp.Items[2])
	}
}

func TestMalformedPayloadKeepsConnection(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialTest(t, s)
	ctx := context.Background()

	// Raw garbage JSON inside a perfectly framed request.
	resp, err := c.Do(ctx, OpCompile, nil) // empty payload: not valid JSON for a CompileRequest
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeInvalidArgument {
		t.Fatalf("want INVALID_ARGUMENT, got %+v", resp)
	}

	// Unknown op: framed fine, still typed, connection still usable.
	resp, err = c.Do(ctx, Op(42), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeInvalidArgument {
		t.Fatalf("unknown op: want INVALID_ARGUMENT, got %+v", resp)
	}

	// Bad MPL source and bad config are the client's fault, typed.
	for _, req := range []CompileRequest{
		{Src: "not a program"},
		{Src: testSrc, K: 65},
		{Src: testSrc, Strategy: "STOR9"},
		{Src: testSrc, BudgetNodes: -1},
		{Src: testSrc, DeadlineMS: -5},
	} {
		resp, err = c.Compile(ctx, req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if resp.Code != CodeInvalidArgument {
			t.Fatalf("%+v: want INVALID_ARGUMENT, got %+v", req, resp)
		}
	}

	// And after all that abuse the connection still serves real work.
	resp, err = c.Compile(ctx, CompileRequest{Src: testSrc})
	if err != nil || resp.Code != CodeOK {
		t.Fatalf("connection poisoned: %+v, %v", resp, err)
	}
}

func TestPerConnCapSheds(t *testing.T) {
	rec := telemetry.New()
	s := newTestServer(t, Config{PerConnInFlight: 1, MaxInFlight: 1, MaxQueue: 4, Telemetry: rec})
	c := dialTest(t, s)
	ctx := context.Background()

	// Fire a burst of concurrent compiles on one connection: with one
	// per-conn slot, at least one must come back RESOURCE_EXHAUSTED and
	// every single one must come back with something.
	const n = 8
	codes := make(chan Code, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Compile(ctx, CompileRequest{Src: testSrc})
			if err != nil {
				codes <- Code("TRANSPORT:" + err.Error())
				return
			}
			codes <- resp.Code
		}()
	}
	wg.Wait()
	close(codes)
	var ok, shed int
	for code := range codes {
		switch code {
		case CodeOK:
			ok++
		case CodeResourceExhausted:
			shed++
		default:
			t.Fatalf("unexpected outcome %q", code)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("want both successes and sheds, got ok=%d shed=%d", ok, shed)
	}
	if got := rec.MetricsSnapshot()[`parmem_server_shed_total{reason="per_conn"}`]; got == 0 {
		t.Fatal("per_conn shed metric not recorded")
	}
}

// parkAdmitted installs the admitted-hook so every admitted request blocks
// until the returned release func is called (or its ctx expires). Must be
// called before the test server is created so the hook outlives it.
func parkAdmitted(t *testing.T) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	testHookAdmitted = func(ctx context.Context) {
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}
	t.Cleanup(func() { testHookAdmitted = nil })
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func TestAdmissionQueueSheds(t *testing.T) {
	release := parkAdmitted(t)
	rec := telemetry.New()
	// One slot, no queue: while the slot is held, any other request must
	// shed immediately with a typed RESOURCE_EXHAUSTED — never hang.
	s := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, PerConnInFlight: 4, Telemetry: rec})
	ctx := context.Background()

	holder := dialTest(t, s)
	parked := make(chan outcomeResp, 1)
	go func() {
		resp, err := holder.Compile(ctx, CompileRequest{Src: testSrc, DeadlineMS: 10_000})
		parked <- outcomeResp{resp, err}
	}()
	waitGauge(t, rec, "parmem_server_inflight", 1)

	probe := dialTest(t, s)
	start := time.Now()
	resp, err := probe.Compile(ctx, CompileRequest{Src: testSrc})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeResourceExhausted {
		t.Fatalf("want RESOURCE_EXHAUSTED while the slot is held, got %+v", resp)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shed took %v; load shedding must be immediate, not a hang", d)
	}
	if got := rec.MetricsSnapshot()[`parmem_server_shed_total{reason="queue_full"}`]; got == 0 {
		t.Fatal("queue_full shed metric not recorded")
	}

	release()
	o := <-parked
	if o.err != nil || o.resp.Code != CodeOK {
		t.Fatalf("parked request should complete once released: %+v, %v", o.resp, o.err)
	}
}

// waitGauge polls the recorder until the named gauge reaches at least want.
func waitGauge(t *testing.T, rec *telemetry.Recorder, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rec.MetricsSnapshot()[name] < want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge %s never reached %d (now %d)", name, want, rec.MetricsSnapshot()[name])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDeadlineExceededTyped(t *testing.T) {
	// Park every admitted request until its own deadline fires: the hook
	// stands in for a compile slow enough to blow a 50ms budget.
	parkAdmitted(t)
	s := newTestServer(t, Config{})
	c := dialTest(t, s)

	resp, err := c.Compile(context.Background(), CompileRequest{Src: testSrc, DeadlineMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeDeadlineExceeded {
		t.Fatalf("want DEADLINE_EXCEEDED, got %+v", resp)
	}
}

func TestPanicIsolation(t *testing.T) {
	defer faultinject.Reset()
	s := newTestServer(t, Config{})
	c := dialTest(t, s)
	sibling := dialTest(t, s)
	ctx := context.Background()

	req := AssignRequest{Instrs: [][]int{{0, 1, 2}, {1, 2, 3}}, K: 4}

	faultinject.Arm("assign.phase")
	resp, err := c.Assign(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeInternal {
		t.Fatalf("armed fault: want INTERNAL, got %+v", resp)
	}
	if !strings.HasPrefix(resp.Phase, "assign") {
		t.Fatalf("INTERNAL response should name the phase, got %q", resp.Phase)
	}

	// Sibling connection unaffected while the fault is still armed (ping
	// does not reach the armed point).
	if resp, err := sibling.Ping(ctx); err != nil || resp.Code != CodeOK {
		t.Fatalf("sibling connection damaged: %+v, %v", resp, err)
	}

	faultinject.Reset()
	// The same connection keeps serving after the poisoned request.
	resp, err = c.Assign(ctx, req)
	if err != nil || resp.Code != CodeOK {
		t.Fatalf("connection dead after panic isolation: %+v, %v", resp, err)
	}
}

func TestDrainUnderLoad(t *testing.T) {
	release := parkAdmitted(t)
	rec := telemetry.New()
	s := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 32, PerConnInFlight: 32, Telemetry: rec})
	c := dialTest(t, s)
	ctx := context.Background()

	// Park a pile of requests in flight (2 running, the rest queued).
	const n = 12
	results := make(chan outcomeResp, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := c.Compile(ctx, CompileRequest{Src: testSrc, DeadlineMS: 10_000})
			results <- outcomeResp{resp, err}
		}()
	}
	waitGauge(t, rec, "parmem_server_inflight", 2)

	// Start the drain while the load is parked, then let it run to
	// completion by releasing the parked requests.
	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		drained <- s.Drain(dctx)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s.Ready() {
		t.Fatal("server still ready after drain")
	}

	// Every single request got a response: the drain dropped nothing.
	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("request %d lost its response during drain: %v", i, o.err)
		}
		switch o.resp.Code {
		case CodeOK, CodeUnavailable, CodeCanceled, CodeDeadlineExceeded:
		default:
			t.Fatalf("request %d: unexpected drain-time code %+v", i, o.resp)
		}
	}

	// The listener is closed: new connections are refused.
	if _, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		t.Fatal("listener still accepting after drain")
	}
	if rec.MetricsSnapshot()["parmem_server_drain_us"] == 0 {
		t.Fatal("drain duration metric not recorded")
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	release := parkAdmitted(t)
	rec := telemetry.New()
	s := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 8, PerConnInFlight: 8, Telemetry: rec})
	c := dialTest(t, s)
	ctx := context.Background()

	// Hold the single slot so the drain has something in flight.
	slow := make(chan outcomeResp, 1)
	go func() {
		resp, err := c.Compile(ctx, CompileRequest{Src: testSrc, DeadlineMS: 10_000})
		slow <- outcomeResp{resp, err}
	}()
	waitGauge(t, rec, "parmem_server_inflight", 1)

	go s.Drain(context.Background()) //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}

	// The in-flight request is still parked, so the connection is alive:
	// new work on it must be refused with a typed UNAVAILABLE.
	resp, err := c.Compile(ctx, CompileRequest{Src: testSrc})
	if err != nil {
		t.Fatalf("probe during drain lost its response: %v", err)
	}
	if resp.Code != CodeUnavailable {
		t.Fatalf("request during drain: want UNAVAILABLE, got %+v", resp)
	}
	if got := rec.MetricsSnapshot()[`parmem_server_shed_total{reason="draining"}`]; got == 0 {
		t.Fatal("draining shed metric not recorded")
	}

	release()
	o := <-slow
	if o.err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", o.err)
	}
	if o.resp.Code != CodeOK {
		t.Fatalf("in-flight request during drain: %+v", o.resp)
	}
}

type outcomeResp struct {
	resp Response
	err  error
}

func TestHealthEndpoints(t *testing.T) {
	rec := telemetry.New()
	s := newTestServer(t, Config{Telemetry: rec})
	ts, err := rec.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	s.MountHealth(ts)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ts.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d", got)
	}
	// Metrics still served on the same endpoint.
	if got := get("/metrics"); got != http.StatusOK {
		t.Fatalf("/metrics = %d", got)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after completed drain = %d, want 503", got)
	}
}

// TestDeltaSessionRoundTrip drives the incremental wire path: hold a base
// with an assign request, patch it with deltas, verify the patched
// placement is conflict-free and matches a cold assign of the edited
// stream, and check the session-scoping error paths.
func TestDeltaSessionRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialTest(t, s)
	ctx := context.Background()

	instrs := [][]int{{0, 1, 2}, {1, 2, 3}, {4, 5}, {5, 6}}
	resp, err := c.Assign(ctx, AssignRequest{Instrs: instrs, K: 4, Hold: "base"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeOK || resp.Held != "base" || resp.Incremental == nil {
		t.Fatalf("assign+hold: %+v", resp)
	}
	if !resp.Incremental.Full || resp.Incremental.Components != 2 {
		t.Fatalf("cold hold stats: %+v", resp.Incremental)
	}

	// Patch: rewrite one instruction in the first component, append a word.
	edited := [][]int{{0, 1, 3}, {1, 2, 3}, {4, 5}, {5, 6}, {7, 8}}
	resp, err = c.Delta(ctx, DeltaRequest{
		Base:    "base",
		Hold:    "base2",
		Changed: []ChangedOp{{Index: 0, Ops: []int{0, 1, 3}}},
		Added:   [][]int{{7, 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeOK || resp.Held != "base2" || resp.Incremental == nil {
		t.Fatalf("delta: %+v", resp)
	}
	if resp.Incremental.Full || resp.Incremental.Reused == 0 {
		t.Fatalf("delta stats show no reuse: %+v", resp.Incremental)
	}
	copies := parmem.Copies{}
	for id, mods := range resp.Result.Copies {
		for _, m := range mods {
			copies[id] = copies[id].Add(m)
		}
	}
	for _, word := range edited {
		if !parmem.ConflictFree(word, copies) {
			t.Fatalf("patched allocation leaves %v conflicting", word)
		}
	}
	cold, err := c.Assign(ctx, AssignRequest{Instrs: edited, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Code != CodeOK {
		t.Fatalf("cold assign: %+v", cold)
	}
	// The patched placement must be bit-identical to the cold recompile.
	if !reflect.DeepEqual(resp.Result.Copies, cold.Result.Copies) ||
		resp.Result.TotalCopies != cold.Result.TotalCopies ||
		resp.Result.Atoms != cold.Result.Atoms {
		t.Fatalf("delta result differs from cold recompile:\n got %+v\nwant %+v", resp.Result, cold.Result)
	}

	// Chained delta against the patched session.
	resp, err = c.Delta(ctx, DeltaRequest{Base: "base2", Removed: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeOK || resp.Held != "" {
		t.Fatalf("chained delta without hold: %+v", resp)
	}

	// Error paths: unknown base, missing base, out-of-range edit.
	resp, err = c.Delta(ctx, DeltaRequest{Base: "nope"})
	if err != nil || resp.Code != CodeInvalidArgument {
		t.Fatalf("unknown base: %+v, %v", resp, err)
	}
	resp, err = c.Delta(ctx, DeltaRequest{})
	if err != nil || resp.Code != CodeInvalidArgument {
		t.Fatalf("missing base: %+v, %v", resp, err)
	}
	resp, err = c.Delta(ctx, DeltaRequest{Base: "base", Removed: []int{99}})
	if err != nil || resp.Code != CodeInvalidArgument {
		t.Fatalf("out-of-range removal: %+v, %v", resp, err)
	}
	// Hold with a non-STOR1 strategy is rejected up front.
	resp, err = c.Assign(ctx, AssignRequest{Instrs: instrs, K: 4, Strategy: "STOR2", Hold: "s2"})
	if err != nil || resp.Code != CodeInvalidArgument {
		t.Fatalf("non-STOR1 hold: %+v, %v", resp, err)
	}

	// Sessions are per-connection: a second client cannot see "base".
	c2 := dialTest(t, s)
	resp, err = c2.Delta(ctx, DeltaRequest{Base: "base"})
	if err != nil || resp.Code != CodeInvalidArgument {
		t.Fatalf("cross-connection base: %+v, %v", resp, err)
	}
}

// TestDeltaSessionEviction pins the FIFO cap on held sessions.
func TestDeltaSessionEviction(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialTest(t, s)
	ctx := context.Background()
	instrs := [][]int{{0, 1}, {1, 2}}
	for i := 0; i <= maxHeldSessions; i++ {
		resp, err := c.Assign(ctx, AssignRequest{
			Instrs: instrs, K: 4, Hold: fmt.Sprintf("s%d", i),
		})
		if err != nil || resp.Code != CodeOK {
			t.Fatalf("hold s%d: %+v, %v", i, resp, err)
		}
	}
	// s0 was evicted by the (cap+1)-th hold; s1 survives.
	resp, err := c.Delta(ctx, DeltaRequest{Base: "s0"})
	if err != nil || resp.Code != CodeInvalidArgument {
		t.Fatalf("evicted base should be unknown: %+v, %v", resp, err)
	}
	resp, err = c.Delta(ctx, DeltaRequest{Base: "s1"})
	if err != nil || resp.Code != CodeOK {
		t.Fatalf("s1 should survive: %+v, %v", resp, err)
	}
}
