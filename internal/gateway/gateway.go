// Package gateway is the fleet front of the assignment engine: a TCP
// proxy (parmemgw) speaking the same framed protocol as parmemd, routing
// each request to one of N backends by consistent hashing over the
// request's cache identity. Identical work always lands on the same
// backend, so the fleet's allocation caches — memory and disk tiers —
// partition the keyspace into disjoint warm shards instead of N cold
// copies of everything.
//
// Health is probed continuously (protocol Ping, which also reports drain
// state, plus an optional /readyz URL per backend). A request whose
// preferred backend is down or draining fails over along the ring's
// clockwise order; only when every backend is unroutable does the client
// see a typed UNAVAILABLE. Backend drains pass through: a draining
// parmemd stops receiving new work from the gateway before it would have
// refused it itself.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"parmem/internal/server"
	"parmem/internal/telemetry"
)

// Config configures a gateway.
type Config struct {
	// Addr is the listen address (host:port; port 0 picks a free one).
	Addr string
	// Backends are the parmemd addresses to route across; at least one.
	Backends []string
	// ReadyURLs optionally maps (by index) each backend to a /readyz
	// endpoint probed alongside the protocol ping; "" skips.
	ReadyURLs []string
	// Replicas is the virtual-node count per backend on the hash ring;
	// 0 picks the default.
	Replicas int
	// MaxFrameBytes caps a frame payload; default server.DefaultMaxFrame.
	MaxFrameBytes int
	// FrameTimeout is the slow-loris guard: once a frame's first byte
	// arrives, the whole frame must follow within it; it also bounds each
	// response write. Default 10s.
	FrameTimeout time.Duration
	// ProbeInterval is the health-probe period; default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip; default 2s.
	ProbeTimeout time.Duration
	// ForwardTimeout bounds one forwarded request when the client gave no
	// deadline; default 60s.
	ForwardTimeout time.Duration
	// Telemetry records gateway metrics; nil disables.
	Telemetry *telemetry.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = server.DefaultMaxFrame
	}
	if c.FrameTimeout <= 0 {
		c.FrameTimeout = 10 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 60 * time.Second
	}
	return c
}

// Gateway is a running parmemgw instance: the ring, probing, routing,
// forwarding and trace injection behind the shared connection layer
// (server.Front).
type Gateway struct {
	cfg      Config
	front    *server.Front
	ring     *ring
	backends []*backend

	probeWG sync.WaitGroup

	mReqUS map[server.Op]*telemetry.Histogram
}

// New validates cfg, binds the listener, starts the health prober and the
// accept loop.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	fr, err := server.Listen("gateway", cfg.Addr, cfg.MaxFrameBytes, cfg.FrameTimeout)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:    cfg,
		front:  fr,
		ring:   newRing(cfg.Backends, cfg.Replicas),
		mReqUS: map[server.Op]*telemetry.Histogram{},
	}
	for _, op := range server.RequestOps {
		g.mReqUS[op] = cfg.Telemetry.Histogram(telemetry.MGatewayReqMicros, "op", op.String())
	}
	for i, addr := range cfg.Backends {
		b := &backend{
			addr: addr,
			mUp:  cfg.Telemetry.Gauge(telemetry.MGatewayBackendUp, "backend", addr),
		}
		if i < len(cfg.ReadyURLs) {
			b.readyURL = cfg.ReadyURLs[i]
		}
		g.backends = append(g.backends, b)
	}
	// One synchronous probe round so the first request after New sees
	// real health instead of all-down.
	for _, b := range g.backends {
		b.probe(fr.Context(), cfg.ProbeTimeout)
	}
	g.probeWG.Add(1)
	go g.probeLoop()
	fr.Serve(server.FrontHooks{
		Serve:     g.serveFrame,
		Teardown:  g.stopBackends,
		ConnsOpen: cfg.Telemetry.Gauge(telemetry.MGatewayConnsOpen),
	})
	return g, nil
}

// Addr returns the bound listen address.
func (g *Gateway) Addr() string { return g.front.Addr() }

// Draining reports whether a drain has begun.
func (g *Gateway) Draining() bool { return g.front.Draining() }

// Ready reports whether the gateway can accept new work: not draining
// and at least one routable backend — the /readyz answer.
func (g *Gateway) Ready() bool {
	if g.front.Draining() {
		return false
	}
	for _, b := range g.backends {
		if b.routable() {
			return true
		}
	}
	return false
}

// MountHealth registers /healthz and /readyz on a telemetry server.
func (g *Gateway) MountHealth(ts *telemetry.Server) { g.front.MountHealth(ts, g.Ready) }

func (g *Gateway) probeLoop() {
	defer g.probeWG.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.front.Context().Done():
			return
		case <-t.C:
		}
		for _, b := range g.backends {
			b.probe(g.front.Context(), g.cfg.ProbeTimeout)
		}
	}
}

// serveFrame forwards (or, for pings, answers) one request on its own
// goroutine.
func (g *Gateway) serveFrame(c *server.Conn, f server.Frame) {
	c.Go(f, func() {
		start := time.Now()
		resp := g.process(f)
		g.mReqUS[f.Op].ObserveExemplar(time.Since(start).Microseconds(), resp.Trace)
		c.Respond(f, resp)
	})
}

// process answers one request frame: pings locally, everything else by
// routed forwarding.
func (g *Gateway) process(f server.Frame) server.Response {
	switch f.Op {
	case server.OpPing:
		return server.Response{Code: server.CodeOK, Draining: g.front.Draining(),
			Trace: server.TraceEcho(f.Payload)}
	case server.OpCompile, server.OpAssign, server.OpBatch, server.OpDelta:
		return g.forward(f)
	default:
		return server.Response{Code: server.CodeInvalidArgument,
			Error: fmt.Sprintf("gateway: unknown op %d", uint8(f.Op)),
			Trace: server.TraceEcho(f.Payload)}
	}
}

// injectTrace rewrites the payload's trace field to tc's wire form and
// leaves every other field untouched. On any marshaling trouble the
// original payload comes back — propagation is best-effort, routing is not.
func injectTrace(payload []byte, tc telemetry.TraceContext) []byte {
	m := map[string]json.RawMessage{}
	if len(payload) > 0 {
		if err := json.Unmarshal(payload, &m); err != nil {
			return payload
		}
	}
	enc, err := json.Marshal(tc.String())
	if err != nil {
		return payload
	}
	m["trace"] = enc
	out, err := json.Marshal(m)
	if err != nil {
		return payload
	}
	return out
}

// forward routes f to its consistent-hash backend, failing over along
// the ring when the preferred backend is unroutable or the send fails at
// the transport layer. Typed protocol responses — including UNAVAILABLE
// from a backend that started draining between probe rounds — are
// relayed, except that UNAVAILABLE triggers one more failover attempt
// since a sibling backend can still serve the request (a cache miss
// there at worst).
func (g *Gateway) forward(f server.Frame) server.Response {
	// Route on the payload as the client sent it: trace injection must not
	// move a request to a different cache shard.
	key := routeKey(f.Op, f.Payload)

	// Adopt the client's trace or start one at the fleet edge, so every
	// response carries a trace id and the daemon's spans link back here.
	tc, ok := server.PayloadTrace(f.Payload)
	if !ok {
		tc = telemetry.NewTrace()
	}
	sp := g.cfg.Telemetry.StartSpanTrace("gw_"+f.Op.String(), tc)
	defer sp.End()

	seq := g.ring.sequence(key, make([]int, 0, len(g.backends)))
	var lastErr string
	for attempt, idx := range seq {
		b := g.backends[idx]
		if !b.routable() && attempt < len(seq)-1 {
			// Known-bad: skip without burning a transport attempt, unless
			// it is the last candidate (then try anyway — probes lag).
			continue
		}
		if attempt > 0 {
			g.cfg.Telemetry.Counter(telemetry.MGatewayFailovers, "backend", g.backends[seq[0]].addr).Inc()
		}
		fwd := f
		fsp := g.cfg.Telemetry.StartSpan("forward", sp)
		if fsp != nil {
			// A tracing gateway rewrites the trace field so the backend's
			// rpc span links under this forward attempt; an untraced one
			// passes the payload through byte-identical.
			fsp.SetAttrStr("backend", b.addr)
			fwd.Payload = injectTrace(f.Payload, fsp.Context())
		}
		resp, err := g.forwardTo(b, fwd)
		fsp.End()
		if err != nil {
			b.setHealthy(false)
			lastErr = err.Error()
			continue
		}
		if resp.Code == server.CodeUnavailable {
			// The backend is draining; let the ring's next choice take it.
			b.draining.Store(true)
			lastErr = resp.Error
			continue
		}
		g.cfg.Telemetry.Counter(telemetry.MGatewayRequests, "backend", b.addr, "code", string(resp.Code)).Inc()
		if resp.Trace == "" {
			resp.Trace = tc.TraceID()
		}
		return resp
	}
	if lastErr == "" {
		lastErr = "no routable backend"
	}
	return server.Response{Code: server.CodeUnavailable,
		Error: "gateway: " + lastErr, Trace: tc.TraceID()}
}

func (g *Gateway) forwardTo(b *backend, f server.Frame) (server.Response, error) {
	c, err := b.getClient()
	if err != nil {
		return server.Response{}, err
	}
	ctx, cancel := context.WithTimeout(g.front.Context(), g.cfg.ForwardTimeout)
	defer cancel()
	return c.DoRaw(ctx, f.Op, f.Payload)
}

// Drain gracefully stops the gateway (see server.Front.Drain): stop
// accepting, refuse new requests with UNAVAILABLE, wait for in-flight
// forwards (bounded by ctx), answer frames already sent, then stop probing
// and close the backend clients.
func (g *Gateway) Drain(ctx context.Context) error { return g.front.Drain(ctx) }

// stopBackends is the drain's teardown: the front has canceled its
// context, so the prober is exiting.
func (g *Gateway) stopBackends() error {
	g.probeWG.Wait()
	for _, b := range g.backends {
		b.close()
	}
	return nil
}

// Close hard-stops the gateway.
func (g *Gateway) Close() error { return g.front.Close() }
