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
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parmem"
	"parmem/internal/telemetry"
)

// Config sizes the daemon's robustness envelope. The zero value of every
// field picks a production-sane default (see withDefaults); tests shrink
// them to force the edges.
type Config struct {
	// Addr is the listen address ("host:port"; port 0 picks a free one).
	Addr string
	// MaxInFlight bounds requests executing concurrently; default 8.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot before new
	// arrivals are shed with RESOURCE_EXHAUSTED; default 2*MaxInFlight.
	MaxQueue int
	// PerConnInFlight bounds concurrent requests per connection (a single
	// client cannot monopolize the admission queue); default 4.
	PerConnInFlight int
	// MaxFrameBytes caps a frame payload; default DefaultMaxFrame.
	MaxFrameBytes int
	// MaxBatchItems caps the sources of one batch request; default 64.
	MaxBatchItems int
	// DefaultDeadline applies when a request carries no deadline_ms;
	// default 10s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines; default 60s.
	MaxDeadline time.Duration
	// MaxBudgetNodes clamps client-requested search budgets; default
	// parmem.DefaultMaxBacktrackNodes.
	MaxBudgetNodes int64
	// FrameTimeout is the slow-loris guard: once a frame's first byte
	// arrives, the whole frame must follow within this window or the
	// connection is closed (idle connections may wait indefinitely for a
	// first byte); it also bounds response writes. Default 10s.
	FrameTimeout time.Duration
	// Workers is the engine pool size per request. The default 1 keeps
	// each request sequential — concurrent requests are the parallelism,
	// and nested fan-out would oversubscribe the pool.
	Workers int
	// CacheCapacity sizes the shared allocation cache (0 = engine
	// default; negative disables caching). Sharing one cache across
	// requests is the daemon's whole reason to exist: repeated graphs
	// skip their coloring and duplication searches.
	CacheCapacity int
	// CacheDir, when non-empty, backs the allocation cache with a
	// persistent disk tier at this directory, so a restarted daemon
	// serves previously compiled programs as cache hits. Requires
	// caching enabled (CacheCapacity >= 0).
	CacheDir string
	// MaxCacheBytes bounds the disk tier's log file (0 = tier default).
	MaxCacheBytes int64
	// CacheReadOnly opens the disk tier as a snapshot: hits are served
	// but nothing is persisted.
	CacheReadOnly bool
	// Telemetry records server metrics and engine spans; nil disables.
	Telemetry *telemetry.Recorder

	// FlightRing sizes the flight recorder's always-on ring of completed
	// request records; default 256.
	FlightRing int
	// FlightLatency is the slow-request capture threshold: any request
	// whose wall time meets or exceeds it trips a flight capture. Default
	// 1s; negative disables the latency trigger (shed/degraded/internal
	// triggers stay armed — the recorder itself is always on).
	FlightLatency time.Duration
	// FlightDir, when non-empty, spools flight captures to this directory
	// with oldest-first eviction. Empty keeps captures in memory only.
	FlightDir string
	// FlightMaxCaptures bounds retained captures, in memory and on disk;
	// default 32.
	FlightMaxCaptures int
	// FlightMinInterval throttles captures per trigger reason; default 1s.
	FlightMinInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.PerConnInFlight <= 0 {
		c.PerConnInFlight = 4
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = DefaultMaxFrame
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.MaxBudgetNodes <= 0 {
		c.MaxBudgetNodes = parmem.DefaultMaxBacktrackNodes
	}
	if c.FrameTimeout <= 0 {
		c.FrameTimeout = 10 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.FlightRing <= 0 {
		c.FlightRing = 256
	}
	if c.FlightLatency == 0 {
		c.FlightLatency = time.Second
	}
	if c.FlightMaxCaptures <= 0 {
		c.FlightMaxCaptures = 32
	}
	if c.FlightMinInterval == 0 {
		c.FlightMinInterval = time.Second
	}
	return c
}

// Server is a running parmemd instance.
type Server struct {
	cfg   Config
	ln    net.Listener
	store parmem.CacheStore // nil when caching is disabled
	gate  *gate

	// baseCtx parents every request context; cancelBase deadline-cancels
	// all in-flight work when a drain overruns its grace period.
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

	connWG sync.WaitGroup // connection read loops
	reqWG  sync.WaitGroup // in-flight requests, through response write

	flight *flightRecorder

	// Resolved nil-safe instruments (all no-ops without Telemetry).
	mConnsOpen  *telemetry.Gauge
	mConnsTotal *telemetry.Counter
	mDrainUS    *telemetry.Gauge
	mQueueWait  *telemetry.Histogram
}

// New validates cfg, binds the listener and starts the accept loop. The
// returned server is serving; stop it with Drain (graceful) or Close
// (hard).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	var store parmem.CacheStore
	if cfg.CacheDir != "" && cfg.CacheCapacity < 0 {
		ln.Close()
		return nil, fmt.Errorf("server: CacheDir set but caching disabled (CacheCapacity < 0)")
	}
	if cfg.CacheCapacity >= 0 {
		store, err = parmem.OpenCacheStore(parmem.CacheConfig{
			MemoryEntries: cfg.CacheCapacity,
			DiskPath:      cfg.CacheDir,
			MaxDiskBytes:  cfg.MaxCacheBytes,
			ReadOnly:      cfg.CacheReadOnly && cfg.CacheDir != "",
		})
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("server: opening cache dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		ln:          ln,
		store:       store,
		gate:        newGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.Telemetry),
		baseCtx:     ctx,
		cancelBase:  cancel,
		drained:     make(chan struct{}),
		conns:       map[net.Conn]struct{}{},
		flight:      newFlightRecorder(cfg),
		mConnsOpen:  cfg.Telemetry.Gauge(telemetry.MServerConnsOpen),
		mConnsTotal: cfg.Telemetry.Counter(telemetry.MServerConnsTotal),
		mDrainUS:    cfg.Telemetry.Gauge(telemetry.MServerDrainMicros),
		mQueueWait:  cfg.Telemetry.Histogram(telemetry.MServerQueueWaitUs),
	}
	// The flight recorder's span ring listens to every span the engine
	// emits, so a capture can include the triggering request's full tree.
	cfg.Telemetry.AddSink(s.flight.spans)
	s.connWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Draining reports whether a drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Healthy reports process liveness (the /healthz answer): true until the
// drain has fully completed.
func (s *Server) Healthy() bool {
	select {
	case <-s.drained:
		return false
	default:
		return true
	}
}

// Ready reports readiness for new work (the /readyz answer): serving and
// not draining.
func (s *Server) Ready() bool { return !s.draining.Load() && s.Healthy() }

// MountHealth mounts /healthz (process liveness) and /readyz (accepting
// new work) on a telemetry endpoint, so one scrape address answers
// metrics, profiles and orchestration probes. During a drain /readyz
// flips to 503 immediately — load balancers stop routing — while
// /healthz stays 200 until the drain completes, so the process is not
// killed mid-drain.
func (s *Server) MountHealth(ts *telemetry.Server) {
	probe := func(name string, ok func() bool) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if ok() {
				fmt.Fprintf(w, "%s ok\n", name)
				return
			}
			http.Error(w, name+": draining", http.StatusServiceUnavailable)
		})
	}
	ts.Handle("/healthz", probe("healthz", s.Healthy))
	ts.Handle("/readyz", probe("readyz", s.Ready))
	ts.Handle("/debug/flight", http.HandlerFunc(s.serveFlightIndex))
	ts.Handle("/debug/flight/", http.HandlerFunc(s.serveFlightCapture))
}

// flightIndex is the /debug/flight payload: the live request ring plus the
// retained captures (newest last). CaptureNames includes spooled files from
// earlier runs when FlightDir is set.
type flightIndex struct {
	Ring     []FlightRecord   `json:"ring"`
	Captures []*FlightCapture `json:"captures"`
	Spooled  []string         `json:"spooled,omitempty"`
}

func (s *Server) serveFlightIndex(w http.ResponseWriter, _ *http.Request) {
	idx := flightIndex{Ring: s.flight.Records(), Captures: s.flight.Captures()}
	if s.cfg.FlightDir != "" {
		idx.Spooled = spoolNames(s.cfg.FlightDir)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(idx) //nolint:errcheck // best-effort introspection
}

func (s *Server) serveFlightCapture(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/debug/flight/")
	// Spool names are flat; anything with a path separator is a traversal
	// attempt, not a capture.
	if name == "" || strings.ContainsAny(name, "/\\") {
		http.Error(w, "bad capture name", http.StatusBadRequest)
		return
	}
	if fc, ok := s.flight.Capture(name); ok {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(fc) //nolint:errcheck
		return
	}
	if s.cfg.FlightDir != "" {
		b, err := os.ReadFile(filepath.Join(s.cfg.FlightDir, name))
		if err == nil {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.Write(b) //nolint:errcheck
			return
		}
	}
	http.Error(w, "unknown capture "+name, http.StatusNotFound)
}

// FlightRecords exposes the flight ring (oldest first) for tests and
// embedders.
func (s *Server) FlightRecords() []FlightRecord { return s.flight.Records() }

// FlightCaptures exposes the retained flight captures (oldest first).
func (s *Server) FlightCaptures() []*FlightCapture { return s.flight.Captures() }

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			// Listener closed (drain/close) or a transient accept error;
			// either way one bad accept never stops the loop — only a
			// closed listener does.
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.mu.Lock()
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.mConnsTotal.Inc()
		s.mConnsOpen.Add(1)
		s.connWG.Add(1)
		go s.serveConn(nc)
	}
}

// maxHeldSessions bounds the incremental results one connection may hold;
// holding another past the cap evicts the oldest (FIFO). Sessions die with
// the connection — they are working state, not a cache.
const maxHeldSessions = 8

// conn is the per-connection state shared by its request goroutines.
type conn struct {
	nc  net.Conn
	wmu sync.Mutex    // serializes response frames
	sem chan struct{} // per-connection concurrency cap

	// Held incremental sessions, by client-chosen name. AssignResult is
	// immutable (a delta forks a new one), so concurrent deltas against one
	// base are safe; the mutex only guards the map itself.
	smu      sync.Mutex
	sessions map[string]*heldSession
	order    []string // FIFO eviction order
}

// heldSession is one retained incremental result plus the configuration
// it was compiled under — deltas must replay the same K and method.
type heldSession struct {
	res *parmem.AssignResult
	cfg parmem.AssignConfig
}

// holdSession retains res under name, evicting the oldest session past the
// cap. Re-holding an existing name replaces it in place.
func (c *conn) holdSession(name string, s *heldSession) {
	c.smu.Lock()
	defer c.smu.Unlock()
	if c.sessions == nil {
		c.sessions = map[string]*heldSession{}
	}
	if _, ok := c.sessions[name]; !ok {
		c.order = append(c.order, name)
		if len(c.order) > maxHeldSessions {
			delete(c.sessions, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.sessions[name] = s
}

// session looks up a held session by name.
func (c *conn) session(name string) (*heldSession, bool) {
	c.smu.Lock()
	defer c.smu.Unlock()
	s, ok := c.sessions[name]
	return s, ok
}

// writeFrame writes one response frame under the connection's write lock
// and deadline. A peer that stops reading (full socket buffer) trips the
// deadline and the connection is abandoned — it cannot wedge the writer
// goroutine forever.
func (s *Server) writeFrame(c *conn, f Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(s.cfg.FrameTimeout)) //nolint:errcheck
	err := writeFrame(c.nc, f)
	c.nc.SetWriteDeadline(time.Time{}) //nolint:errcheck
	return err
}

// respond marshals and writes a response, counting it in the request
// metrics.
func (s *Server) respond(c *conn, op Op, id uint64, resp Response) {
	payload, err := json.Marshal(resp)
	if err != nil { // unreachable: Response marshals cleanly by shape
		payload = []byte(`{"code":"INTERNAL","error":"response marshal failed"}`)
	}
	s.cfg.Telemetry.Counter(telemetry.MServerRequests, "op", op.String(), "code", string(resp.Code)).Inc()
	s.writeFrame(c, Frame{Op: op.Response(), ID: id, Payload: payload}) //nolint:errcheck // peer gone; nothing to tell it
}

func (s *Server) badFrame(kind string) {
	s.cfg.Telemetry.Counter(telemetry.MServerBadFrames, "kind", kind).Inc()
}

// serveConn reads frames and fans requests out to handler goroutines,
// bounded by the per-connection cap. Framing failures end only this
// connection; the listener and sibling connections keep serving.
func (s *Server) serveConn(nc net.Conn) {
	defer s.connWG.Done()
	c := &conn{nc: nc, sem: make(chan struct{}, s.cfg.PerConnInFlight)}
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.mConnsOpen.Add(-1)
		nc.Close()
	}()
	br := bufio.NewReaderSize(nc, 4096)
	for {
		f, err := s.readFrame(nc, br)
		if err != nil {
			s.rejectFrame(c, f, err)
			return
		}
		start := time.Now()
		if !knownRequest(f.Op) {
			// The frame parsed cleanly, so the stream is still in sync:
			// answer and keep the connection.
			s.badFrame("unknown_op")
			s.respond(c, f.Op, f.ID, Response{Code: CodeInvalidArgument, Error: fmt.Sprintf("unknown op %d", uint8(f.Op))})
			continue
		}
		select {
		case c.sem <- struct{}{}:
		default:
			// Per-connection cap: shed immediately and typed, never a
			// silent hang behind the connection's own backlog.
			s.cfg.Telemetry.Counter(telemetry.MServerShed, "reason", "per_conn").Inc()
			s.respond(c, f.Op, f.ID, Response{Code: CodeResourceExhausted, Trace: traceEcho(f.Payload),
				Error: fmt.Sprintf("connection already has %d requests in flight", s.cfg.PerConnInFlight)})
			continue
		}
		s.drainMu.RLock()
		if s.draining.Load() {
			s.drainMu.RUnlock()
			<-c.sem
			s.cfg.Telemetry.Counter(telemetry.MServerShed, "reason", "draining").Inc()
			s.respond(c, f.Op, f.ID, Response{Code: CodeUnavailable, Trace: traceEcho(f.Payload),
				Error: "server is draining", Draining: true})
			continue
		}
		s.reqWG.Add(1)
		s.drainMu.RUnlock()
		go func(f Frame) {
			defer s.reqWG.Done()
			defer func() { <-c.sem }()
			var meta reqMeta
			resp := s.process(c, f, &meta)
			resp.Trace = meta.trace.TraceID()
			// Record before responding: a client holding a slow, shed or
			// degraded response can then always fetch its capture.
			us := time.Since(start).Microseconds()
			rec := FlightRecord{
				Op:          f.Op.String(),
				Trace:       resp.Trace,
				Code:        string(resp.Code),
				StartUnixUS: start.UnixMicro(),
				LatencyUS:   us,
				QueueUS:     meta.queueUS,
			}
			if resp.Result != nil {
				rec.BudgetNodes = resp.Result.BudgetNodes
				rec.CacheHit = resp.Result.CacheHit
				rec.Degraded = resp.Result.Degraded
			}
			s.flight.record(rec)
			s.respond(c, f.Op, f.ID, resp)
			s.cfg.Telemetry.Histogram(telemetry.MServerReqMicros, "op", f.Op.String()).
				ObserveExemplar(time.Since(start).Microseconds(), resp.Trace)
		}(f)
	}
}

// reqMeta carries per-request bookkeeping from the handlers back to the
// response path: the resolved trace context and the admission queue wait.
type reqMeta struct {
	trace   telemetry.TraceContext
	queueUS int64
}

// ingressTrace resolves a request's wire trace field: a parseable context is
// continued, anything else starts a fresh trace — so every request is
// traceable and every response carries a trace id to correlate by.
func ingressTrace(wire string) telemetry.TraceContext {
	if tc, ok := telemetry.ParseTraceContext(wire); ok {
		return tc
	}
	return telemetry.NewTrace()
}

// traceEcho extracts the trace id to echo from an unprocessed payload — the
// shed paths answer before any handler parses the request, but the caller
// still deserves its correlation id back.
func traceEcho(payload []byte) string {
	if len(payload) == 0 {
		return ""
	}
	var t struct {
		Trace string `json:"trace"`
	}
	if json.Unmarshal(payload, &t) != nil {
		return ""
	}
	tc, ok := telemetry.ParseTraceContext(t.Trace)
	if !ok {
		return ""
	}
	return tc.TraceID()
}

// engineCtx returns the context engine work should run under: carrying the
// rpc span's origin when spans are recorded (the engine's root span becomes
// its local child), otherwise the wire trace context as-is.
func engineCtx(ctx context.Context, sp *telemetry.Span, tc telemetry.TraceContext) context.Context {
	if out := sp.Context(); out.Valid() {
		return telemetry.ContextWithTrace(ctx, out)
	}
	return telemetry.ContextWithTrace(ctx, tc)
}

// readFrame reads one frame with the slow-loris guard: wait for the first
// byte without a deadline (idle connections are fine), then require the
// rest of the frame within FrameTimeout.
func (s *Server) readFrame(nc net.Conn, br *bufio.Reader) (Frame, error) {
	s.setReadDeadline(nc, time.Time{})
	b0, err := br.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	s.setReadDeadline(nc, time.Now().Add(s.cfg.FrameTimeout))
	var hdr [HeaderLen]byte
	hdr[0] = b0
	if _, err := io.ReadFull(br, hdr[1:]); err != nil {
		return Frame{}, fmt.Errorf("truncated header: %w", err)
	}
	op, id, n, err := parseHeader(&hdr, s.cfg.MaxFrameBytes)
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
func (s *Server) setReadDeadline(nc net.Conn, t time.Time) {
	nc.SetReadDeadline(t) //nolint:errcheck
	if ns := s.readCut.Load(); ns != 0 {
		if cut := time.Unix(0, ns); t.IsZero() || cut.Before(t) {
			nc.SetReadDeadline(cut) //nolint:errcheck
		}
	}
}

// rejectFrame classifies a framing failure, emits a best-effort typed
// error frame where the peer can still use one, and lets the connection
// close. EOF (peer hung up cleanly) is not a fault.
func (s *Server) rejectFrame(c *conn, f Frame, err error) {
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed):
		return
	case s.readCut.Load() != 0 && errors.Is(err, os.ErrDeadlineExceeded):
		// The drain's read cut-off, not a slow peer.
		return
	case errors.Is(err, ErrFrameSize):
		// Header was sane, payload is just too big: tell the peer why
		// before closing (we will not read the oversized payload).
		s.badFrame("oversized")
		s.respond(c, f.Op, f.ID, Response{Code: CodeInvalidArgument, Error: err.Error()})
	case errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion):
		// Garbage stream: nothing after this point can be trusted, and a
		// response frame would be garbage to whatever the peer is.
		s.badFrame("bad_magic")
	case errors.Is(err, io.ErrUnexpectedEOF):
		s.badFrame("truncated")
	default:
		// Read timeout (slow loris) or transport error mid-frame.
		s.badFrame("timeout")
	}
}

// process executes one admitted-or-shed request and builds its response.
// It never panics: a poisoned request is isolated here and answered with
// a typed INTERNAL response while sibling requests keep running. Each known
// request resolves its trace context at ingress (recorded into meta for the
// response echo and the flight record) and runs under a per-request rpc
// span that parents the engine's own span tree.
func (s *Server) process(c *conn, f Frame, meta *reqMeta) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = Response{Code: CodeInternal, Phase: "server/handler",
				Error: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())}
		}
	}()
	switch f.Op {
	case OpPing:
		var req PingRequest
		if len(f.Payload) > 0 {
			json.Unmarshal(f.Payload, &req) //nolint:errcheck // a garbled ping payload still gets a pong
		}
		meta.trace = ingressTrace(req.Trace)
		return Response{Code: CodeOK, Draining: s.draining.Load()}
	case OpCompile:
		var req CompileRequest
		if err := json.Unmarshal(f.Payload, &req); err != nil {
			return Response{Code: CodeInvalidArgument, Error: "bad compile payload: " + err.Error()}
		}
		meta.trace = ingressTrace(req.Trace)
		sp := s.cfg.Telemetry.StartSpanTrace("rpc_compile", meta.trace)
		defer sp.End()
		return s.handleCompile(req, meta, sp)
	case OpAssign:
		var req AssignRequest
		if err := json.Unmarshal(f.Payload, &req); err != nil {
			return Response{Code: CodeInvalidArgument, Error: "bad assign payload: " + err.Error()}
		}
		meta.trace = ingressTrace(req.Trace)
		sp := s.cfg.Telemetry.StartSpanTrace("rpc_assign", meta.trace)
		defer sp.End()
		return s.handleAssign(c, req, meta, sp)
	case OpDelta:
		var req DeltaRequest
		if err := json.Unmarshal(f.Payload, &req); err != nil {
			return Response{Code: CodeInvalidArgument, Error: "bad delta payload: " + err.Error()}
		}
		meta.trace = ingressTrace(req.Trace)
		sp := s.cfg.Telemetry.StartSpanTrace("rpc_delta", meta.trace)
		defer sp.End()
		return s.handleDelta(c, req, meta, sp)
	case OpBatch:
		var req BatchRequest
		if err := json.Unmarshal(f.Payload, &req); err != nil {
			return Response{Code: CodeInvalidArgument, Error: "bad batch payload: " + err.Error()}
		}
		meta.trace = ingressTrace(req.Trace)
		sp := s.cfg.Telemetry.StartSpanTrace("rpc_batch", meta.trace)
		defer sp.End()
		return s.handleBatch(req, meta, sp)
	}
	return Response{Code: CodeInvalidArgument, Error: fmt.Sprintf("unknown op %d", uint8(f.Op))}
}

// requestCtx maps a request's deadline_ms onto a context under baseCtx,
// clamped to MaxDeadline.
func (s *Server) requestCtx(deadlineMS int64) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultDeadline
	if deadlineMS < 0 {
		return nil, nil, fmt.Errorf("deadline_ms %d: must be non-negative", deadlineMS)
	}
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, d)
	return ctx, cancel, nil
}

// requestBudget maps budget_nodes onto an engine Budget, clamped to
// MaxBudgetNodes; negative (unlimited) is not accepted from the network.
func (s *Server) requestBudget(nodes int64) (parmem.Budget, error) {
	if nodes < 0 {
		return parmem.Budget{}, fmt.Errorf("budget_nodes %d: unlimited budgets are not accepted over the network", nodes)
	}
	if nodes == 0 || nodes > s.cfg.MaxBudgetNodes {
		nodes = s.cfg.MaxBudgetNodes
	}
	return parmem.Budget{MaxBacktrackNodes: nodes}, nil
}

func parseStrategy(s string) (parmem.Strategy, error) {
	switch s {
	case "", "STOR1":
		return parmem.STOR1, nil
	case "STOR2":
		return parmem.STOR2, nil
	case "STOR3":
		return parmem.STOR3, nil
	case "PerRegion":
		return parmem.PerRegion, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

func parseMethod(s string) (parmem.Method, error) {
	switch s {
	case "", "hittingset":
		return parmem.HittingSet, nil
	case "backtrack":
		return parmem.Backtrack, nil
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

// admit runs fn under the admission gate and the request context,
// translating gate and context failures into typed responses. The queue
// wait (acquire entry to slot grant) lands in meta and the queue-wait
// histogram, exemplared with the request's trace id.
func (s *Server) admit(ctx context.Context, meta *reqMeta, fn func(ctx context.Context) Response) Response {
	enter := time.Now()
	err := s.gate.acquire(ctx)
	wait := time.Since(enter).Microseconds()
	if meta != nil {
		meta.queueUS = wait
		s.mQueueWait.ObserveExemplar(wait, meta.trace.TraceID())
	}
	if err != nil {
		if errors.Is(err, errShed) {
			s.cfg.Telemetry.Counter(telemetry.MServerShed, "reason", "queue_full").Inc()
			return Response{Code: CodeResourceExhausted,
				Error: fmt.Sprintf("admission queue full (%d running, %d queued)", s.cfg.MaxInFlight, s.cfg.MaxQueue)}
		}
		return Response{Code: codeForCtx(ctx), Error: "expired while queued: " + err.Error()}
	}
	defer s.gate.release()
	if testHookAdmitted != nil {
		testHookAdmitted(ctx)
	}
	// A request that spent its whole deadline queued gets a typed expiry
	// instead of burning an execution slot on doomed work.
	if ctx.Err() != nil {
		return Response{Code: codeForCtx(ctx), Error: "expired before execution: " + ctx.Err().Error()}
	}
	return fn(ctx)
}

// testHookAdmitted, when non-nil, runs after a request has acquired its
// admission slot and before its handler executes. Tests use it to park
// requests in their slots deterministically; production never sets it.
var testHookAdmitted func(ctx context.Context)

// codeForCtx distinguishes a request that ran out of its own deadline
// from one canceled by hard shutdown.
func codeForCtx(ctx context.Context) Code {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return CodeDeadlineExceeded
	}
	return CodeCanceled
}

// codeForError maps an engine error onto the wire taxonomy.
func codeForError(ctx context.Context, err error) (Code, string) {
	var ie *parmem.InternalError
	switch {
	case errors.As(err, &ie):
		return CodeInternal, ie.Phase
	case errors.Is(err, parmem.ErrCanceled):
		return codeForCtx(ctx), ""
	case errors.Is(err, parmem.ErrBudget):
		return CodeDeadlineExceeded, ""
	default:
		// Everything else the engine rejects — parse errors, config
		// errors (parmem.ErrConfig), bad instruction streams — is the
		// client's input.
		return CodeInvalidArgument, ""
	}
}

func (s *Server) handleCompile(req CompileRequest, meta *reqMeta, sp *telemetry.Span) Response {
	opt, resp := s.compileOptions(req.K, req.Strategy, req.Method, req.BudgetNodes)
	if resp != nil {
		return *resp
	}
	ctx, cancel, err := s.requestCtx(req.DeadlineMS)
	if err != nil {
		return Response{Code: CodeInvalidArgument, Error: err.Error()}
	}
	defer cancel()
	ctx = engineCtx(ctx, sp, meta.trace)
	return s.admit(ctx, meta, func(ctx context.Context) Response {
		p, err := parmem.CompileCtx(ctx, req.Src, opt)
		if err != nil {
			code, phase := codeForError(ctx, err)
			return Response{Code: code, Phase: phase, Error: err.Error()}
		}
		sum := summarize(p.Alloc, false)
		sum.Words = len(p.Sched.Words)
		return Response{Code: CodeOK, Result: sum}
	})
}

// compileOptions builds the engine Options shared by compile and batch
// requests, or a typed error response.
func (s *Server) compileOptions(k int, strategy, method string, nodes int64) (parmem.Options, *Response) {
	bad := func(msg string) (parmem.Options, *Response) {
		return parmem.Options{}, &Response{Code: CodeInvalidArgument, Error: msg}
	}
	st, err := parseStrategy(strategy)
	if err != nil {
		return bad(err.Error())
	}
	m, err := parseMethod(method)
	if err != nil {
		return bad(err.Error())
	}
	b, err := s.requestBudget(nodes)
	if err != nil {
		return bad(err.Error())
	}
	return parmem.Options{
		Modules:   k,
		Strategy:  st,
		Method:    m,
		Budget:    b,
		Workers:   s.cfg.Workers,
		Store:     s.store,
		Telemetry: s.cfg.Telemetry,
	}, nil
}

func (s *Server) handleAssign(c *conn, req AssignRequest, meta *reqMeta, sp *telemetry.Span) Response {
	st, err := parseStrategy(req.Strategy)
	if err != nil {
		return Response{Code: CodeInvalidArgument, Error: err.Error()}
	}
	m, err := parseMethod(req.Method)
	if err != nil {
		return Response{Code: CodeInvalidArgument, Error: err.Error()}
	}
	b, err := s.requestBudget(req.BudgetNodes)
	if err != nil {
		return Response{Code: CodeInvalidArgument, Error: err.Error()}
	}
	instrs, badResp := wireInstrs(req.Instrs)
	if badResp != nil {
		return *badResp
	}
	ctx, cancel, err := s.requestCtx(req.DeadlineMS)
	if err != nil {
		return Response{Code: CodeInvalidArgument, Error: err.Error()}
	}
	defer cancel()
	cfg := parmem.AssignConfig{
		K:         req.K,
		Strategy:  st,
		Method:    m,
		Budget:    b,
		Workers:   s.cfg.Workers,
		Store:     s.store,
		Telemetry: s.cfg.Telemetry,
	}
	ctx = engineCtx(ctx, sp, meta.trace)
	return s.admit(ctx, meta, func(ctx context.Context) Response {
		if req.Hold == "" {
			al, err := parmem.AssignValues(ctx, instrs, cfg)
			if err != nil {
				code, phase := codeForError(ctx, err)
				return Response{Code: code, Phase: phase, Error: err.Error()}
			}
			return Response{Code: CodeOK, Result: summarize(al, true)}
		}
		res, err := parmem.AssignValuesIncremental(ctx, instrs, cfg)
		if err != nil {
			code, phase := codeForError(ctx, err)
			return Response{Code: code, Phase: phase, Error: err.Error()}
		}
		c.holdSession(req.Hold, &heldSession{res: res, cfg: cfg})
		return Response{Code: CodeOK, Result: summarize(res.Alloc, true),
			Held: req.Hold, Incremental: incrWire(res.Incremental)}
	})
}

// handleDelta patches a held incremental session. The configuration is the
// base's; only the budget and deadline come from the request.
func (s *Server) handleDelta(c *conn, req DeltaRequest, meta *reqMeta, sp *telemetry.Span) Response {
	if req.Base == "" {
		return Response{Code: CodeInvalidArgument, Error: "delta has no base session"}
	}
	sess, ok := c.session(req.Base)
	if !ok {
		return Response{Code: CodeInvalidArgument,
			Error: fmt.Sprintf("unknown base session %q (hold one with an assign request first)", req.Base)}
	}
	b, err := s.requestBudget(req.BudgetNodes)
	if err != nil {
		return Response{Code: CodeInvalidArgument, Error: err.Error()}
	}
	var d parmem.Delta
	for _, ch := range req.Changed {
		d.Changed = append(d.Changed, parmem.ChangedInstruction{Index: ch.Index, Instr: parmem.Instruction(ch.Ops)})
	}
	d.Removed = req.Removed
	added, badResp := wireInstrs(req.Added)
	if badResp != nil {
		return *badResp
	}
	d.Added = added
	ctx, cancel, err := s.requestCtx(req.DeadlineMS)
	if err != nil {
		return Response{Code: CodeInvalidArgument, Error: err.Error()}
	}
	defer cancel()
	cfg := sess.cfg
	cfg.Budget = b
	ctx = engineCtx(ctx, sp, meta.trace)
	return s.admit(ctx, meta, func(ctx context.Context) Response {
		res, err := parmem.AssignValuesDelta(ctx, sess.res, d, cfg)
		if err != nil {
			code, phase := codeForError(ctx, err)
			return Response{Code: code, Phase: phase, Error: err.Error()}
		}
		resp := Response{Code: CodeOK, Result: summarize(res.Alloc, true),
			Incremental: incrWire(res.Incremental)}
		if req.Hold != "" {
			c.holdSession(req.Hold, &heldSession{res: res, cfg: cfg})
			resp.Held = req.Hold
		}
		return resp
	})
}

// wireInstrs validates and converts wire operand sets to instructions.
func wireInstrs(ops [][]int) ([]parmem.Instruction, *Response) {
	instrs := make([]parmem.Instruction, len(ops))
	for i, set := range ops {
		for _, v := range set {
			if v < 0 {
				return nil, &Response{Code: CodeInvalidArgument,
					Error: fmt.Sprintf("instrs[%d]: negative value id %d", i, v)}
			}
		}
		instrs[i] = parmem.Instruction(set)
	}
	return instrs, nil
}

// incrWire converts incremental stats to their wire form.
func incrWire(st parmem.IncrementalStats) *IncrSummary {
	return &IncrSummary{Components: st.Components, Dirty: st.Dirty,
		Reused: st.Reused, CacheHits: st.CacheHits, Full: st.Full}
}

func (s *Server) handleBatch(req BatchRequest, meta *reqMeta, sp *telemetry.Span) Response {
	if len(req.Srcs) == 0 {
		return Response{Code: CodeInvalidArgument, Error: "batch has no sources"}
	}
	if len(req.Srcs) > s.cfg.MaxBatchItems {
		return Response{Code: CodeInvalidArgument,
			Error: fmt.Sprintf("batch of %d sources exceeds the cap of %d", len(req.Srcs), s.cfg.MaxBatchItems)}
	}
	opt, badResp := s.compileOptions(req.K, req.Strategy, req.Method, req.BudgetNodes)
	if badResp != nil {
		return *badResp
	}
	ctx, cancel, err := s.requestCtx(req.DeadlineMS)
	if err != nil {
		return Response{Code: CodeInvalidArgument, Error: err.Error()}
	}
	defer cancel()
	ctx = engineCtx(ctx, sp, meta.trace)
	return s.admit(ctx, meta, func(ctx context.Context) Response {
		results := parmem.CompileBatch(ctx, req.Srcs, opt)
		items := make([]ItemResult, len(results))
		for i, r := range results {
			if r.Err != nil {
				code, _ := codeForError(ctx, r.Err)
				items[i] = ItemResult{Code: code, Error: r.Err.Error()}
				continue
			}
			sum := summarize(r.Program.Alloc, false)
			sum.Words = len(r.Program.Sched.Words)
			items[i] = ItemResult{Code: CodeOK, Result: sum}
		}
		return Response{Code: CodeOK, Items: items}
	})
}

// summarize converts an Allocation to its wire form; withCopies includes
// the full value->modules placement.
func summarize(al parmem.Allocation, withCopies bool) *AllocSummary {
	sum := &AllocSummary{
		Values:      al.SingleCopy + al.MultiCopy,
		SingleCopy:  al.SingleCopy,
		MultiCopy:   al.MultiCopy,
		TotalCopies: al.TotalCopies,
		Atoms:       al.Atoms,
		Degraded:    al.Degraded,
	}
	for _, ph := range al.Phases {
		sum.BudgetNodes += ph.Nodes
		if ph.Cached && sum.CacheHit == "" {
			sum.CacheHit = ph.Phase
		}
	}
	if withCopies {
		sum.Copies = make(map[int][]int, len(al.Copies))
		for id, set := range al.Copies {
			sum.Copies[id] = set.Modules()
		}
	}
	return sum
}

// drainReadGrace is how long a drain keeps reading frames its peers sent
// after the last tracked response, answering each UNAVAILABLE.
const drainReadGrace = 100 * time.Millisecond

// Drain gracefully shuts the server down: stop accepting connections,
// refuse new requests on existing ones with UNAVAILABLE, let in-flight
// work finish, and — if ctx expires first — deadline-cancel the stragglers
// so even they get a typed response. Every admitted request has its
// response written before Drain returns: zero in-flight responses are
// dropped, and a frame that reaches the server within drainReadGrace of
// the last of them is answered UNAVAILABLE. Safe to call once; subsequent
// calls wait for the first.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	first := s.draining.CompareAndSwap(false, true)
	s.drainMu.Unlock()
	if !first {
		<-s.drained
		return nil
	}
	start := time.Now()
	s.ln.Close()

	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Grace period over: cancel every in-flight request. The engine
		// polls cancellation at phase boundaries and inside its search
		// loops, so this converges quickly — and the handlers still
		// write their (CANCELED) responses before reqWG releases.
		err = fmt.Errorf("server: drain grace period expired; canceled in-flight work: %w", ctx.Err())
		s.cancelBase()
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
	s.readCut.Store(cut.UnixNano())
	s.mu.Lock()
	for nc := range s.conns {
		nc.SetReadDeadline(cut) //nolint:errcheck
	}
	s.mu.Unlock()
	conns := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(conns)
	}()
	select {
	case <-conns:
	case <-time.After(time.Until(cut) + drainReadGrace):
		s.mu.Lock()
		for nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		<-conns
	}
	s.cancelBase()
	// With no request able to start and none in flight, flush and release
	// the persistent cache tier so the next daemon over this directory
	// opens a complete, unlocked log.
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("server: closing cache store: %w", cerr)
		}
	}
	s.mDrainUS.Set(time.Since(start).Microseconds())
	close(s.drained)
	return err
}

// CacheStats snapshots the shared allocation cache; ok is false when
// caching is disabled.
func (s *Server) CacheStats() (st parmem.CacheStats, ok bool) {
	if s.store == nil {
		return parmem.CacheStats{}, false
	}
	return s.store.Stats(), true
}

// DiskCacheStats snapshots the persistent cache tier; ok is false without
// Config.CacheDir.
func (s *Server) DiskCacheStats() (st parmem.DiskCacheStats, ok bool) {
	if s.store == nil {
		return parmem.DiskCacheStats{}, false
	}
	return s.store.DiskStats()
}

// Close hard-stops the server: cancel all work, close everything, wait.
// Prefer Drain; Close is for tests and fatal teardown.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a pre-expired drain deadline = cancel in-flight work now
	if err := s.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}
