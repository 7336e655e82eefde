package gateway

import (
	"context"
	"testing"
	"time"

	"parmem/internal/benchprog"
	"parmem/internal/server"
	"parmem/internal/telemetry"
)

// bootBackend starts one parmemd on a free port.
func bootBackend(t *testing.T) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// bootGateway fronts the given backends with a fast probe cycle.
func bootGateway(t *testing.T, addrs ...string) *Gateway {
	t.Helper()
	g, err := New(Config{
		Addr:          "127.0.0.1:0",
		Backends:      addrs,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestGatewayRequiresBackends(t *testing.T) {
	if _, err := New(Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("New accepted an empty backend list")
	}
}

func TestGatewayForwardsCompileAssignBatch(t *testing.T) {
	b1, b2 := bootBackend(t), bootBackend(t)
	g := bootGateway(t, b1.Addr(), b2.Addr())
	c, err := server.Dial(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	resp, err := c.Ping(ctx)
	if err != nil || resp.Code != server.CodeOK || resp.Draining {
		t.Fatalf("ping through gateway: %v / %+v", err, resp)
	}
	src := benchprog.All()[0].Source
	resp, err = c.Compile(ctx, server.CompileRequest{Src: src, K: 8})
	if err != nil || resp.Code != server.CodeOK {
		t.Fatalf("compile through gateway: %v / %+v", err, resp)
	}
	if resp.Result == nil || resp.Result.TotalCopies == 0 {
		t.Fatalf("compile result empty: %+v", resp)
	}
	resp, err = c.Assign(ctx, server.AssignRequest{
		Instrs: [][]int{{0, 1, 2}, {1, 2, 3}}, K: 4,
	})
	if err != nil || resp.Code != server.CodeOK {
		t.Fatalf("assign through gateway: %v / %+v", err, resp)
	}
	resp, err = c.Batch(ctx, server.BatchRequest{Srcs: []string{src, src}, K: 8})
	if err != nil || resp.Code != server.CodeOK || len(resp.Items) != 2 {
		t.Fatalf("batch through gateway: %v / %+v", err, resp)
	}
	// Typed errors relay too.
	resp, err = c.Compile(ctx, server.CompileRequest{Src: "this is not MPL", K: 8})
	if err != nil || resp.Code != server.CodeInvalidArgument {
		t.Fatalf("bad compile through gateway: %v / %+v", err, resp)
	}
}

// TestGatewayRoutesStably: the same request always lands on the same
// backend (observed through that backend's cache stats), and the two
// backends' caches end up disjoint.
func TestGatewayRoutesStably(t *testing.T) {
	b1, b2 := bootBackend(t), bootBackend(t)
	g := bootGateway(t, b1.Addr(), b2.Addr())
	c, err := server.Dial(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Enough distinct sources that both shards almost surely see work.
	specs := benchprog.All()
	for round := 0; round < 3; round++ {
		for _, spec := range specs {
			resp, err := c.Compile(ctx, server.CompileRequest{Src: spec.Source, K: 8})
			if err != nil || resp.Code != server.CodeOK {
				t.Fatalf("compile %s: %v / %+v", spec.Name, err, resp)
			}
		}
	}
	s1, _ := b1.CacheStats()
	s2, _ := b2.CacheStats()
	if s1.Entries == 0 || s2.Entries == 0 {
		t.Skipf("all programs hashed to one shard (s1=%d s2=%d entries); ring is fine, corpus is small", s1.Entries, s2.Entries)
	}
	// Stability: rounds 2 and 3 of each program must hit the warm shard.
	// With perfect affinity every recompile is a whole-assign cache hit.
	if s1.Hits+s2.Hits == 0 {
		t.Fatalf("no cache hits across recompiles: routing is not stable (s1=%+v s2=%+v)", s1, s2)
	}
}

// TestGatewayFailover: killing one backend mid-traffic degrades nothing —
// requests re-route to the survivor and the client keeps getting typed OK
// responses.
func TestGatewayFailover(t *testing.T) {
	b1, b2 := bootBackend(t), bootBackend(t)
	g := bootGateway(t, b1.Addr(), b2.Addr())
	c, err := server.Dial(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	src := benchprog.All()[0].Source

	for _, spec := range benchprog.All() {
		if resp, err := c.Compile(ctx, server.CompileRequest{Src: spec.Source, K: 8}); err != nil || resp.Code != server.CodeOK {
			t.Fatalf("warmup %s: %v / %+v", spec.Name, err, resp)
		}
	}
	b2.Close() // hard kill one backend

	deadline := time.Now().Add(10 * time.Second)
	for _, spec := range benchprog.All() {
		for {
			resp, err := c.Compile(ctx, server.CompileRequest{Src: spec.Source, K: 8})
			if err != nil {
				t.Fatalf("transport error through gateway after backend death: %v", err)
			}
			if resp.Code == server.CodeOK {
				break
			}
			// A brief UNAVAILABLE window while probes catch up is
			// acceptable; it must converge.
			if time.Now().After(deadline) {
				t.Fatalf("failover never converged for %s: %+v", spec.Name, resp)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	_ = src
}

// TestGatewayDrainPassthrough: a draining backend stops receiving new
// work (requests fail over), and a draining gateway answers UNAVAILABLE.
func TestGatewayDrainPassthrough(t *testing.T) {
	b1, b2 := bootBackend(t), bootBackend(t)
	g := bootGateway(t, b1.Addr(), b2.Addr())
	c, err := server.Dial(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := b2.Drain(dctx); err != nil {
		t.Fatalf("backend drain: %v", err)
	}
	// Every program must still compile OK via b1, never UNAVAILABLE.
	for _, spec := range benchprog.All() {
		resp, err := c.Compile(ctx, server.CompileRequest{Src: spec.Source, K: 8})
		if err != nil || resp.Code != server.CodeOK {
			t.Fatalf("compile %s with one backend drained: %v / %+v", spec.Name, err, resp)
		}
	}

	// Now drain the gateway itself: new requests get typed UNAVAILABLE
	// on already-open connections, then the listener is gone.
	gctx, gcancel := context.WithTimeout(ctx, 5*time.Second)
	defer gcancel()
	drained := make(chan error, 1)
	go func() { drained <- g.Drain(gctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := c.Ping(ctx)
		if err != nil {
			break // connection closed by the completed drain: also fine
		}
		if resp.Draining || resp.Code == server.CodeUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gateway never reported draining")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := <-drained; err != nil {
		t.Fatalf("gateway drain: %v", err)
	}
}

func TestGatewayReady(t *testing.T) {
	b1 := bootBackend(t)
	g := bootGateway(t, b1.Addr())
	if !g.Ready() {
		t.Fatal("gateway with a healthy backend not ready")
	}
	b1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for g.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("gateway still ready with its only backend dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGatewayDeltaLatencyRecorded: a delta through the gateway lands in the
// gateway's request-latency histogram like every other op.
func TestGatewayDeltaLatencyRecorded(t *testing.T) {
	b := bootBackend(t)
	rec := telemetry.New()
	g, err := New(Config{Addr: "127.0.0.1:0", Backends: []string{b.Addr()}, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	c, err := server.Dial(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	resp, err := c.Assign(ctx, server.AssignRequest{Instrs: [][]int{{0, 1, 2}, {1, 2, 3}}, K: 4, Hold: "base"})
	if err != nil || resp.Code != server.CodeOK {
		t.Fatalf("hold through gateway: %+v, %v", resp, err)
	}
	resp, err = c.Delta(ctx, server.DeltaRequest{Base: "base", Added: [][]int{{0, 3}}})
	if err != nil || resp.Code != server.CodeOK {
		t.Fatalf("delta through gateway: %+v, %v", resp, err)
	}
	if got := rec.MetricsSnapshot()[`parmem_gateway_request_us{op="delta"}_count`]; got < 1 {
		t.Fatalf(`parmem_gateway_request_us{op="delta"} count = %d, want >= 1`, got)
	}
}
