package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
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

// Server is a running parmemd instance: the engine handlers, admission,
// the per-connection cap, held sessions and the flight recorder behind the
// shared connection layer (Front).
type Server struct {
	cfg   Config
	front *Front
	store parmem.CacheStore // nil when caching is disabled
	gate  *gate

	flight *flightRecorder

	mQueueWait *telemetry.Histogram // nil-safe; a no-op without Telemetry
}

// New validates cfg, binds the listener and starts the accept loop. The
// returned server is serving; stop it with Drain (graceful) or Close
// (hard).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.CacheDir != "" && cfg.CacheCapacity < 0 {
		return nil, fmt.Errorf("server: CacheDir set but caching disabled (CacheCapacity < 0)")
	}
	fr, err := Listen("server", cfg.Addr, cfg.MaxFrameBytes, cfg.FrameTimeout)
	if err != nil {
		return nil, err
	}
	var store parmem.CacheStore
	if cfg.CacheCapacity >= 0 {
		store, err = parmem.OpenCacheStore(parmem.CacheConfig{
			MemoryEntries: cfg.CacheCapacity,
			DiskPath:      cfg.CacheDir,
			MaxDiskBytes:  cfg.MaxCacheBytes,
			ReadOnly:      cfg.CacheReadOnly && cfg.CacheDir != "",
		})
		if err != nil {
			fr.ln.Close()
			return nil, fmt.Errorf("server: opening cache dir: %w", err)
		}
	}
	s := &Server{
		cfg:        cfg,
		front:      fr,
		store:      store,
		gate:       newGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.Telemetry),
		flight:     newFlightRecorder(cfg),
		mQueueWait: cfg.Telemetry.Histogram(telemetry.MServerQueueWaitUs),
	}
	// The flight recorder's span ring listens to every span the engine
	// emits, so a capture can include the triggering request's full tree.
	cfg.Telemetry.AddSink(s.flight.spans)
	fr.Serve(FrontHooks{
		Serve:     s.serveFrame,
		Teardown:  s.closeStore,
		ConnsOpen: cfg.Telemetry.Gauge(telemetry.MServerConnsOpen),
		Telemetry: cfg.Telemetry,
	})
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.front.Addr() }

// Draining reports whether a drain has started.
func (s *Server) Draining() bool { return s.front.Draining() }

// Healthy reports process liveness (the /healthz answer): true until the
// drain has fully completed.
func (s *Server) Healthy() bool { return s.front.Healthy() }

// Ready reports readiness for new work (the /readyz answer): serving and
// not draining.
func (s *Server) Ready() bool { return !s.front.Draining() && s.front.Healthy() }

// MountHealth mounts /healthz, /readyz (see Front.MountHealth) and the
// flight recorder's /debug/flight on a telemetry endpoint.
func (s *Server) MountHealth(ts *telemetry.Server) {
	s.front.MountHealth(ts, s.Ready)
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

// maxHeldSessions bounds the incremental results one connection may hold;
// holding another past the cap evicts the oldest (FIFO). Sessions die with
// the connection — they are working state, not a cache.
const maxHeldSessions = 8

// heldSession is one retained incremental result plus the configuration
// it was compiled under — deltas must replay the same K and method.
type heldSession struct {
	res *parmem.AssignResult
	cfg parmem.AssignConfig
}

// holdSession retains res under name, evicting the oldest session past the
// cap. Re-holding an existing name replaces it in place.
func (c *Conn) holdSession(name string, s *heldSession) {
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
func (c *Conn) session(name string) (*heldSession, bool) {
	c.smu.Lock()
	defer c.smu.Unlock()
	s, ok := c.sessions[name]
	return s, ok
}

// serveFrame answers one request read from c: unknown ops and requests
// past the per-connection cap at once and typed, everything else on its own
// goroutine through process.
func (s *Server) serveFrame(c *Conn, f Frame) {
	start := time.Now()
	if !knownRequest(f.Op) {
		// The frame parsed cleanly, so the stream is still in sync:
		// answer and keep the connection.
		s.front.badFrame("unknown_op")
		c.Respond(f, Response{Code: CodeInvalidArgument, Error: fmt.Sprintf("unknown op %d", uint8(f.Op))})
		return
	}
	if c.inflight.Add(1) > int32(s.cfg.PerConnInFlight) {
		c.inflight.Add(-1)
		// Per-connection cap: shed immediately and typed, never a
		// silent hang behind the connection's own backlog.
		s.cfg.Telemetry.Counter(telemetry.MServerShed, "reason", "per_conn").Inc()
		c.Respond(f, Response{Code: CodeResourceExhausted, Trace: TraceEcho(f.Payload),
			Error: fmt.Sprintf("connection already has %d requests in flight", s.cfg.PerConnInFlight)})
		return
	}
	started := c.Go(f, func() {
		defer c.inflight.Add(-1)
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
		c.Respond(f, resp)
		s.cfg.Telemetry.Histogram(telemetry.MServerReqMicros, "op", f.Op.String()).
			ObserveExemplar(time.Since(start).Microseconds(), resp.Trace)
	})
	if !started {
		c.inflight.Add(-1)
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

// engineCtx returns the context engine work should run under: carrying the
// rpc span's origin when spans are recorded (the engine's root span becomes
// its local child), otherwise the wire trace context as-is.
func engineCtx(ctx context.Context, sp *telemetry.Span, tc telemetry.TraceContext) context.Context {
	if out := sp.Context(); out.Valid() {
		return telemetry.ContextWithTrace(ctx, out)
	}
	return telemetry.ContextWithTrace(ctx, tc)
}

// process executes one admitted-or-shed request and builds its response.
// It never panics: a poisoned request is isolated here and answered with
// a typed INTERNAL response while sibling requests keep running. Each known
// request resolves its trace context at ingress (recorded into meta for the
// response echo and the flight record) and runs under a per-request rpc
// span that parents the engine's own span tree.
func (s *Server) process(c *Conn, f Frame, meta *reqMeta) (resp Response) {
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
		return Response{Code: CodeOK, Draining: s.front.Draining()}
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

// requestCtx maps a request's deadline_ms onto a context under the front's,
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
	ctx, cancel := context.WithTimeout(s.front.Context(), d)
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

func (s *Server) handleAssign(c *Conn, req AssignRequest, meta *reqMeta, sp *telemetry.Span) Response {
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
func (s *Server) handleDelta(c *Conn, req DeltaRequest, meta *reqMeta, sp *telemetry.Span) Response {
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

// Drain gracefully shuts the server down (see Front.Drain) and then
// flushes and releases the persistent cache tier, so the next daemon over
// its directory opens a complete, unlocked log. Safe to call once;
// subsequent calls wait for the first.
func (s *Server) Drain(ctx context.Context) error { return s.front.Drain(ctx) }

// closeStore is the drain's teardown: with no request able to start and
// none in flight, close the cache store.
func (s *Server) closeStore() error {
	if s.store == nil {
		return nil
	}
	if err := s.store.Close(); err != nil {
		return fmt.Errorf("server: closing cache store: %w", err)
	}
	return nil
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
func (s *Server) Close() error { return s.front.Close() }
