package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"parmem/internal/telemetry"
)

// Front is the framed-connection layer parmemd and parmemgw share: the
// listener and accept loop, the connection registry, frame reads under the
// slow-loris guard, typed rejects, locked response writes, the
// draining-versus-tracked-request handshake and the graceful drain. What a
// request means is its owner's business (FrontHooks.Serve).
type Front struct {
	name         string // "server" or "gateway": prefixes the layer's own messages
	ln           net.Listener
	maxFrame     int
	frameTimeout time.Duration
	hooks        FrontHooks

	// baseCtx parents every request's work; it is canceled when a drain
	// overruns its grace period and once the drain has closed every
	// connection.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// drainMu makes "check draining, then track the request" atomic
	// against Drain setting the flag: once Drain holds the write lock, no
	// further reqWG.Add can happen, so its Wait is race-free and every
	// tracked request's response is written before connections close.
	drainMu  sync.RWMutex
	draining atomic.Bool
	drained  chan struct{} // closed when Drain completes
	// readCut is the read cut-off (unix nanoseconds) Drain sets once every
	// tracked response is written; zero while serving. Frames that reach a
	// connection before it are still read and answered UNAVAILABLE.
	readCut atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	connWG sync.WaitGroup // the accept loop and connection read loops
	reqWG  sync.WaitGroup // tracked requests, through response write
}

// FrontHooks are the owner's part of a Front.
type FrontHooks struct {
	// Serve is called on a connection's read loop with each cleanly framed
	// request. It must not block: it answers at once (Conn.Respond) or hands
	// the work to Conn.Go.
	Serve func(c *Conn, f Frame)
	// Teardown runs once a drain has closed every connection: the daemon
	// closes its cache store, the gateway stops probing and closes its
	// backend clients. Its error is Drain's unless the drain already failed.
	Teardown func() error
	// ConnsOpen gauges the open connections.
	ConnsOpen *telemetry.Gauge
	// Telemetry, when set, records the daemon's per-connection series:
	// connections accepted, responses by op and code, draining sheds,
	// rejected frames and the drain's wall time.
	Telemetry *telemetry.Recorder
}

// Listen binds addr for a Front named name (the prefix of its own error
// messages). Nothing is accepted until Serve.
func Listen(name, addr string, maxFrame int, frameTimeout time.Duration) (*Front, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Front{
		name:         name,
		ln:           ln,
		maxFrame:     maxFrame,
		frameTimeout: frameTimeout,
		baseCtx:      ctx,
		cancelBase:   cancel,
		drained:      make(chan struct{}),
		conns:        map[net.Conn]struct{}{},
	}, nil
}

// Serve starts the accept loop with the owner's hooks.
func (fr *Front) Serve(h FrontHooks) {
	fr.hooks = h
	fr.connWG.Add(1)
	go fr.acceptLoop()
}

// Addr returns the bound listen address.
func (fr *Front) Addr() string { return fr.ln.Addr().String() }

// Context parents every request's work. A drain cancels it when its grace
// period runs out and once every connection has closed.
func (fr *Front) Context() context.Context { return fr.baseCtx }

// Draining reports whether a drain has started.
func (fr *Front) Draining() bool { return fr.draining.Load() }

// Healthy reports process liveness (the /healthz answer): true until the
// drain has fully completed.
func (fr *Front) Healthy() bool {
	select {
	case <-fr.drained:
		return false
	default:
		return true
	}
}

// MountHealth mounts /healthz (Healthy) and /readyz (ready) on a telemetry
// endpoint, so one scrape address answers metrics, profiles and
// orchestration probes. During a drain /readyz should flip to 503 at once —
// load balancers stop routing — while /healthz stays 200 until the drain
// completes, so the process is not killed mid-drain.
func (fr *Front) MountHealth(ts *telemetry.Server, ready func() bool) {
	probe := func(name string, ok func() bool) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if ok() {
				fmt.Fprintf(w, "%s ok\n", name)
				return
			}
			http.Error(w, name+": unavailable", http.StatusServiceUnavailable)
		})
	}
	ts.Handle("/healthz", probe("healthz", fr.Healthy))
	ts.Handle("/readyz", probe("readyz", ready))
}

func (fr *Front) acceptLoop() {
	defer fr.connWG.Done()
	for {
		nc, err := fr.ln.Accept()
		if err != nil {
			// Listener closed (drain/close) or a transient accept error;
			// either way one bad accept never stops the loop — only a
			// closed listener does.
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		fr.mu.Lock()
		fr.conns[nc] = struct{}{}
		fr.mu.Unlock()
		fr.hooks.Telemetry.Counter(telemetry.MServerConnsTotal).Inc()
		fr.hooks.ConnsOpen.Add(1)
		fr.connWG.Add(1)
		go fr.serveConn(nc)
	}
}

// Conn is one client connection of a Front.
type Conn struct {
	fr  *Front
	nc  net.Conn
	wmu sync.Mutex // serializes response frames

	// The daemon's per-connection state; the gateway leaves it zero.
	inflight atomic.Int32 // requests running (the per-connection cap)
	// Held incremental sessions, by client-chosen name. AssignResult is
	// immutable (a delta forks a new one), so concurrent deltas against one
	// base are safe; the mutex only guards the map itself.
	smu      sync.Mutex
	sessions map[string]*heldSession
	order    []string // FIFO eviction order
}

// serveConn reads frames and hands each to the owner. Framing failures end
// only this connection; the listener and sibling connections keep serving.
func (fr *Front) serveConn(nc net.Conn) {
	defer fr.connWG.Done()
	c := &Conn{fr: fr, nc: nc}
	defer func() {
		fr.mu.Lock()
		delete(fr.conns, nc)
		fr.mu.Unlock()
		fr.hooks.ConnsOpen.Add(-1)
		nc.Close()
	}()
	br := bufio.NewReaderSize(nc, 4096)
	for {
		f, err := fr.readFrame(nc, br)
		if err != nil {
			fr.rejectFrame(c, f, err)
			return
		}
		fr.hooks.Serve(c, f)
	}
}

// readFrame reads one frame with the slow-loris guard: wait for the first
// byte without a deadline (idle connections are fine), then require the
// rest of the frame within the frame timeout.
func (fr *Front) readFrame(nc net.Conn, br *bufio.Reader) (Frame, error) {
	fr.setReadDeadline(nc, time.Time{})
	b0, err := br.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	fr.setReadDeadline(nc, time.Now().Add(fr.frameTimeout))
	var hdr [HeaderLen]byte
	hdr[0] = b0
	if _, err := io.ReadFull(br, hdr[1:]); err != nil {
		return Frame{}, fmt.Errorf("truncated header: %w", err)
	}
	op, id, n, err := parseHeader(&hdr, fr.maxFrame)
	if err != nil {
		return Frame{Op: op, ID: id}, err
	}
	f := Frame{Op: op, ID: id}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(br, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("truncated payload: %w", err)
		}
	}
	return f, nil
}

// setReadDeadline sets nc's read deadline to t (zero: none), capped at the
// drain's read cut-off once there is one. The cut-off is loaded after the
// set, so a concurrent Drain either sees its own deadline win or is seen
// here.
func (fr *Front) setReadDeadline(nc net.Conn, t time.Time) {
	nc.SetReadDeadline(t) //nolint:errcheck
	if ns := fr.readCut.Load(); ns != 0 {
		if cut := time.Unix(0, ns); t.IsZero() || cut.Before(t) {
			nc.SetReadDeadline(cut) //nolint:errcheck
		}
	}
}

// badFrame counts a rejected frame of the given kind.
func (fr *Front) badFrame(kind string) {
	fr.hooks.Telemetry.Counter(telemetry.MServerBadFrames, "kind", kind).Inc()
}

// rejectFrame classifies a framing failure, emits a best-effort typed
// error frame where the peer can still use one, and lets the connection
// close. EOF (peer hung up cleanly) is not a fault.
func (fr *Front) rejectFrame(c *Conn, f Frame, err error) {
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed):
		return
	case fr.readCut.Load() != 0 && errors.Is(err, os.ErrDeadlineExceeded):
		// The drain's read cut-off, not a slow peer.
		return
	case errors.Is(err, ErrFrameSize):
		// Header was sane, payload is just too big: tell the peer why
		// before closing (we will not read the oversized payload).
		fr.badFrame("oversized")
		c.Respond(f, Response{Code: CodeInvalidArgument, Error: err.Error()})
	case errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion):
		// Garbage stream: nothing after this point can be trusted, and a
		// response frame would be garbage to whatever the peer is.
		fr.badFrame("bad_magic")
	case errors.Is(err, io.ErrUnexpectedEOF):
		fr.badFrame("truncated")
	default:
		// Read timeout (slow loris) or transport error mid-frame.
		fr.badFrame("timeout")
	}
}

// Respond writes resp as the answer to request f under the connection's
// write lock and the frame timeout. A peer that stops reading (full socket
// buffer) trips the deadline and the connection is abandoned — it cannot
// wedge the writer forever; the read side notices on its next read.
func (c *Conn) Respond(f Frame, resp Response) {
	payload, err := json.Marshal(resp)
	if err != nil { // unreachable: Response marshals cleanly by shape
		payload = []byte(`{"code":"INTERNAL","error":"response marshal failed"}`)
	}
	c.fr.hooks.Telemetry.Counter(telemetry.MServerRequests, "op", f.Op.String(), "code", string(resp.Code)).Inc()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(c.fr.frameTimeout))                 //nolint:errcheck
	writeFrame(c.nc, Frame{Op: f.Op.Response(), ID: f.ID, Payload: payload}) //nolint:errcheck // peer gone; nothing to tell it
	c.nc.SetWriteDeadline(time.Time{})                                       //nolint:errcheck
}

// Go runs work for request f on its own goroutine, tracked by the drain
// until it returns; work writes f's response itself (Respond). While the
// front drains, f is answered UNAVAILABLE at once instead and work never
// runs. Go reports whether work was started.
func (c *Conn) Go(f Frame, work func()) bool {
	fr := c.fr
	fr.drainMu.RLock()
	if fr.draining.Load() {
		fr.drainMu.RUnlock()
		fr.hooks.Telemetry.Counter(telemetry.MServerShed, "reason", "draining").Inc()
		c.Respond(f, Response{Code: CodeUnavailable, Trace: TraceEcho(f.Payload),
			Error: fr.name + " is draining", Draining: true})
		return false
	}
	fr.reqWG.Add(1)
	fr.drainMu.RUnlock()
	go func() {
		defer fr.reqWG.Done()
		work()
	}()
	return true
}

// drainReadGrace is how long a drain keeps reading frames its peers sent
// after the last tracked response, answering each UNAVAILABLE.
const drainReadGrace = 100 * time.Millisecond

// Drain gracefully shuts the front down: stop accepting connections,
// refuse new requests on existing ones with UNAVAILABLE, let tracked work
// finish, and — if ctx expires first — cancel Context so the stragglers
// still write a typed response. Every tracked request has its response
// written before Drain returns: zero in-flight responses are dropped, and
// a frame that reaches the front within drainReadGrace of the last of them
// is answered UNAVAILABLE. Then the owner's Teardown runs. Safe to call
// once; subsequent calls wait for the first.
func (fr *Front) Drain(ctx context.Context) error {
	fr.drainMu.Lock()
	first := fr.draining.CompareAndSwap(false, true)
	fr.drainMu.Unlock()
	if !first {
		<-fr.drained
		return nil
	}
	start := time.Now()
	fr.ln.Close()

	done := make(chan struct{})
	go func() {
		fr.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Grace period over: cancel every tracked request. The engine
		// polls cancellation at phase boundaries and inside its search
		// loops, and a forward gives up on its context, so this converges
		// quickly — and the work still writes its (CANCELED) response
		// before reqWG releases.
		err = fmt.Errorf("%s: drain grace period expired; canceled in-flight work: %w", fr.name, ctx.Err())
		fr.cancelBase()
		<-done
	}

	// All tracked responses are written. Frames already sent on a
	// connection are still read and answered UNAVAILABLE until the read
	// cut-off, where each connection closes itself; closing a socket that
	// holds unread frames would reset the peer and lose their answers. A
	// hard stop (ctx expired) cuts off at once. A connection still open a
	// grace later is stuck writing to a peer that stopped reading.
	cut := time.Now()
	if ctx.Err() == nil {
		cut = cut.Add(drainReadGrace)
	}
	fr.readCut.Store(cut.UnixNano())
	fr.mu.Lock()
	for nc := range fr.conns {
		nc.SetReadDeadline(cut) //nolint:errcheck
	}
	fr.mu.Unlock()
	conns := make(chan struct{})
	go func() {
		fr.connWG.Wait()
		close(conns)
	}()
	select {
	case <-conns:
	case <-time.After(time.Until(cut) + drainReadGrace):
		fr.mu.Lock()
		for nc := range fr.conns {
			nc.Close()
		}
		fr.mu.Unlock()
		<-conns
	}
	fr.cancelBase()
	if fr.hooks.Teardown != nil {
		if terr := fr.hooks.Teardown(); terr != nil && err == nil {
			err = terr
		}
	}
	fr.hooks.Telemetry.Gauge(telemetry.MServerDrainMicros).Set(time.Since(start).Microseconds())
	close(fr.drained)
	return err
}

// Close hard-stops the front: cancel all work, close everything, wait.
// Prefer Drain; Close is for tests and fatal teardown.
func (fr *Front) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a pre-expired drain deadline = cancel in-flight work now
	if err := fr.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// PayloadTrace extracts the optional wire trace context from a request
// payload without interpreting the rest of it.
func PayloadTrace(payload []byte) (telemetry.TraceContext, bool) {
	if len(payload) == 0 {
		return telemetry.TraceContext{}, false
	}
	var t struct {
		Trace string `json:"trace"`
	}
	if json.Unmarshal(payload, &t) != nil {
		return telemetry.TraceContext{}, false
	}
	return telemetry.ParseTraceContext(t.Trace)
}

// TraceEcho is the trace id to echo for an unprocessed payload — the shed
// paths and the gateway's local answers reply before any handler parses the
// request, but the caller still deserves its correlation id back. "" when
// the request is untraced.
func TraceEcho(payload []byte) string {
	if tc, ok := PayloadTrace(payload); ok {
		return tc.TraceID()
	}
	return ""
}
