// Package telemetry is the unified observability layer of the assignment
// engine: hierarchical spans (trace.go) feeding pluggable sinks — an
// in-memory ring, JSON lines, and a Chrome trace_event exporter — plus an
// atomic metrics registry (metrics.go) of counters, gauges and log-bucket
// histograms, exported as Prometheus text, expvar JSON and a human dump,
// and served live over HTTP next to net/http/pprof (http.go).
//
// The zero-overhead contract: every entry point is nil-safe. A nil
// *Recorder yields nil spans and nil instruments whose methods are no-ops,
// so engine code is instrumented unconditionally and the disabled path
// costs one pointer test per call site — no allocations, no atomics, no
// time reads (benchmarked by BenchmarkAssignTelemetry and gated by the
// steady-state allocs/op baseline).
package telemetry

import (
	"context"
	"io"
	"sync"
	"time"
)

// Metric names of the engine catalogue (see DESIGN §10 for types, labels
// and meanings). Keeping them in one place makes the catalogue greppable
// and the names consistent across the engine, the CLIs and the docs.
const (
	// Pipeline volume.
	MInstructions  = "parmem_instructions_total"         // counter: long instruction words assigned
	MConflictNodes = "parmem_conflict_graph_nodes_total" // counter: conflict-graph nodes built
	MConflictEdges = "parmem_conflict_graph_edges_total" // counter: conflict-graph edges built

	// Decomposition and coloring.
	MAtoms        = "parmem_atoms_total"          // counter: atoms decomposed
	MAtomSizeMax  = "parmem_atom_size_max"        // gauge (high-water): largest atom seen
	MAtomSize     = "parmem_atom_size"            // histogram: nodes per atom
	MColorings    = "parmem_atom_colorings_total" // counter: atom coloring runs
	MUnassigned   = "parmem_unassigned_values"    // histogram: V_unassigned size per phase
	MRepairRounds = "parmem_repair_rounds_total"  // counter: conflict-repair re-duplication rounds

	// Duplication.
	MCopiesPlaced = "parmem_copies_placed_total" // counter{method}: extra copies placed by fresh solves
	MDegradations = "parmem_degradations_total"  // counter{fallback}: budget-exhaustion fallbacks

	// Budget.
	MBudgetNodes = "parmem_budget_nodes_spent_total" // counter: search nodes charged to meters

	// Incremental recompilation.
	MIncrDirty  = "parmem_incremental_dirty_components_total"  // counter: components recomputed by delta runs
	MIncrReused = "parmem_incremental_reused_components_total" // counter: components stitched from prior results
	MIncrFull   = "parmem_incremental_full_recompiles_total"   // counter: delta runs that fell back to a full recompile

	// Phase timing.
	MPhaseMicros = "parmem_phase_duration_us" // histogram{phase}: wall time per assignment phase

	// Allocation cache (scraped from alloccache.Stats by a collector).
	MCacheHits    = "parmem_cache_hits_total"   // counter{level}
	MCacheMisses  = "parmem_cache_misses_total" // counter{level}
	MCacheEntries = "parmem_cache_entries"      // gauge: resident entries

	// Scratch arenas (scraped from arena.ReadStats by a collector).
	MArenaGets        = "parmem_arena_gets_total"         // counter: buffers borrowed
	MArenaPuts        = "parmem_arena_puts_total"         // counter: buffers recycled
	MArenaZeroedBytes = "parmem_arena_zeroed_bytes_total" // counter: bytes zeroed for reuse
	MArenaPoolGets    = "parmem_arena_pool_gets_total"    // counter: Scratches drawn from the global pool

	// Batching.
	MBatchInFlight = "parmem_batch_inflight"    // gauge: batch items currently compiling
	MBatchItems    = "parmem_batch_items_total" // counter: batch items started

	// Server (parmemd): connection, admission and drain health.
	MServerConnsOpen   = "parmem_server_conns_open"       // gauge: connections currently open
	MServerConnsTotal  = "parmem_server_conns_total"      // counter: connections accepted since start
	MServerRequests    = "parmem_server_requests_total"   // counter{op,code}: requests answered, by op and response code
	MServerInFlight    = "parmem_server_inflight"         // gauge: requests currently holding an admission slot
	MServerQueueDepth  = "parmem_server_queue_depth"      // gauge: requests waiting in the admission queue
	MServerShed        = "parmem_server_shed_total"       // counter{reason}: requests shed (queue_full, per_conn, draining)
	MServerBadFrames   = "parmem_server_bad_frames_total" // counter{kind}: malformed/oversized/truncated frames rejected
	MServerReqMicros   = "parmem_server_request_us"       // histogram{op}: request wall time, accept-to-response-written
	MServerQueueWaitUs = "parmem_server_queue_wait_us"    // histogram: admission queue wait per admitted request
	MServerDrainMicros = "parmem_server_drain_us"         // gauge: wall time of the last graceful drain

	// Flight recorder (parmemd): always-on anomaly capture.
	MServerFlightCaptures = "parmem_server_flight_captures_total" // counter{reason}: flight captures written (slow, shed, degraded, internal)
	MServerFlightDropped  = "parmem_server_flight_dropped_total"  // counter{reason}: triggers suppressed by throttling or spool errors

	// Persistent disk cache tier (scraped from diskcache.Stats by a collector).
	MDiskHits        = "parmem_diskcache_hits_total"         // counter: records served from the log
	MDiskMisses      = "parmem_diskcache_misses_total"       // counter: lookups the log could not serve
	MDiskPuts        = "parmem_diskcache_puts_total"         // counter{level}: records appended
	MDiskPutBytes    = "parmem_diskcache_put_bytes_total"    // counter{level}: bytes appended
	MDiskDroppedPuts = "parmem_diskcache_dropped_puts_total" // counter: writes dropped (full queue / read-only)
	MDiskCorruptGets = "parmem_diskcache_corrupt_gets_total" // counter: reads rejected by CRC re-verification
	MDiskCompactions = "parmem_diskcache_compactions_total"  // counter: log compactions completed
	MDiskRecords     = "parmem_diskcache_records"            // gauge: live records indexed
	MDiskBytes       = "parmem_diskcache_bytes"              // gauge: log file size

	// Gateway (parmemgw): routing, backend health and failover.
	MGatewayConnsOpen = "parmem_gateway_conns_open"      // gauge: client connections currently open
	MGatewayRequests  = "parmem_gateway_requests_total"  // counter{backend,code}: requests forwarded, by backend and response code
	MGatewayFailovers = "parmem_gateway_failovers_total" // counter{backend}: requests re-routed off an unhealthy backend
	MGatewayBackendUp = "parmem_gateway_backend_up"      // gauge{backend}: 1 when the prober last saw the backend healthy
	MGatewayReqMicros = "parmem_gateway_request_us"      // histogram{op}: request wall time through the gateway
)

// metricHelp is the HELP text attached to each family on first registration.
var metricHelp = map[string]string{
	MInstructions:     "Long instruction words run through memory-module assignment.",
	MConflictNodes:    "Conflict-graph nodes built across all phases.",
	MConflictEdges:    "Conflict-graph edges built across all phases.",
	MAtoms:            "Atoms produced by clique-separator decomposition.",
	MAtomSizeMax:      "Largest atom (node count) seen by this process.",
	MAtomSize:         "Distribution of atom sizes (nodes per atom).",
	MColorings:        "Urgency-coloring runs over individual atoms.",
	MUnassigned:       "Distribution of V_unassigned sizes per assignment phase.",
	MRepairRounds:     "Conflict-repair rounds that re-ran duplication after forced replication.",
	MCopiesPlaced:     "Extra value copies placed by the duplication strategy; cache hits and reused incremental components add none.",
	MDegradations:     "Budget-exhaustion degradations, by fallback strategy taken.",
	MBudgetNodes:      "Search-budget nodes charged across all assignment phases.",
	MIncrDirty:        "Conflict components recomputed by incremental delta runs.",
	MIncrReused:       "Conflict components reused from a prior result by incremental delta runs.",
	MIncrFull:         "Incremental delta runs that fell back to a full recompile.",
	MPhaseMicros:      "Wall time per assignment phase, microseconds.",
	MCacheHits:        "Allocation-cache hits, by memo level.",
	MCacheMisses:      "Allocation-cache misses, by memo level.",
	MCacheEntries:     "Allocation-cache resident entries.",
	MArenaGets:        "Scratch-arena buffers borrowed.",
	MArenaPuts:        "Scratch-arena buffers recycled back to free lists.",
	MArenaZeroedBytes: "Bytes zeroed when handing out scratch buffers.",
	MArenaPoolGets:    "Scratches drawn from the global arena pool.",
	MBatchInFlight:    "Batch items currently being compiled.",
	MBatchItems:       "Batch items started.",

	MServerConnsOpen:   "parmemd connections currently open.",
	MServerConnsTotal:  "parmemd connections accepted since process start.",
	MServerRequests:    "parmemd requests answered, by op and response code.",
	MServerInFlight:    "parmemd requests currently holding an admission slot.",
	MServerQueueDepth:  "parmemd requests waiting in the admission queue.",
	MServerShed:        "parmemd requests shed by admission control, by reason.",
	MServerBadFrames:   "parmemd malformed, oversized or truncated frames rejected, by kind.",
	MServerReqMicros:   "parmemd request wall time (frame read to response written), microseconds.",
	MServerQueueWaitUs: "parmemd admission queue wait per admitted request, microseconds.",
	MServerDrainMicros: "Wall time of the last parmemd graceful drain, microseconds.",

	MServerFlightCaptures: "parmemd flight captures written, by trigger reason.",
	MServerFlightDropped:  "parmemd flight triggers suppressed (throttled or spool write failed), by reason.",

	MDiskHits:        "Disk cache records served from the append log.",
	MDiskMisses:      "Disk cache lookups the append log could not serve.",
	MDiskPuts:        "Disk cache records appended to the log, by memo level.",
	MDiskPutBytes:    "Disk cache bytes appended to the log, by memo level.",
	MDiskDroppedPuts: "Disk cache writes dropped (full write-behind queue or read-only store).",
	MDiskCorruptGets: "Disk cache reads rejected by CRC re-verification.",
	MDiskCompactions: "Disk cache log compactions completed.",
	MDiskRecords:     "Disk cache live records indexed.",
	MDiskBytes:       "Disk cache log file size in bytes.",

	MGatewayConnsOpen: "parmemgw client connections currently open.",
	MGatewayRequests:  "parmemgw requests forwarded, by backend and response code.",
	MGatewayFailovers: "parmemgw requests re-routed off an unhealthy backend.",
	MGatewayBackendUp: "Whether the parmemgw prober last saw the backend healthy.",
	MGatewayReqMicros: "parmemgw request wall time, microseconds.",
}

// Recorder bundles a Tracer and a metrics Registry — the single handle the
// engine threads through Options.Telemetry. A nil Recorder is fully valid
// and turns every operation into a no-op.
type Recorder struct {
	tracer *Tracer
	reg    *Registry

	mu         sync.Mutex
	collectors map[string]func(*Registry)
	corder     []string
}

// New returns a Recorder emitting spans to the given sinks, with an empty
// metrics registry pre-described with the engine catalogue's help text.
func New(sinks ...Sink) *Recorder {
	return &Recorder{tracer: NewTracer(sinks...), reg: NewRegistry()}
}

// NewClock is New with an injected monotonic clock for deterministic tests.
func NewClock(clock func() time.Duration, sinks ...Sink) *Recorder {
	return &Recorder{tracer: NewTracerClock(clock, sinks...), reg: NewRegistry()}
}

// StartSpan begins a span under parent (nil = root). Nil-safe.
func (r *Recorder) StartSpan(name string, parent *Span) *Span {
	if r == nil {
		return nil
	}
	return r.tracer.StartSpan(name, parent)
}

// StartSpanContext begins a span that joins any distributed trace carried by
// ctx (see Tracer.StartSpanContext). Nil-safe before ctx is touched, so the
// disabled path stays allocation-free.
func (r *Recorder) StartSpanContext(ctx context.Context, name string, parent *Span) *Span {
	if r == nil {
		return nil
	}
	return r.tracer.StartSpanContext(ctx, name, parent)
}

// StartSpanTrace begins a root span joining tc's trace (see
// Tracer.StartSpanTrace). Nil-safe.
func (r *Recorder) StartSpanTrace(name string, tc TraceContext) *Span {
	if r == nil {
		return nil
	}
	return r.tracer.StartSpanTrace(name, tc)
}

// ProcID returns the tracer's process id. Nil-safe.
func (r *Recorder) ProcID() uint64 {
	if r == nil {
		return 0
	}
	return r.tracer.ProcID()
}

// AddSink attaches an additional span sink at runtime. Nil-safe.
func (r *Recorder) AddSink(s Sink) {
	if r == nil {
		return
	}
	r.tracer.AddSink(s)
}

// Counter resolves a counter by name and label pairs. Nil-safe: a nil
// Recorder returns a nil (no-op) counter.
func (r *Recorder) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	c := r.reg.Counter(name, labels...)
	r.reg.SetHelp(name, metricHelp[name])
	return c
}

// Gauge resolves a gauge by name and label pairs. Nil-safe.
func (r *Recorder) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.reg.Gauge(name, labels...)
	r.reg.SetHelp(name, metricHelp[name])
	return g
}

// Histogram resolves a histogram by name and label pairs. Nil-safe.
func (r *Recorder) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.reg.Histogram(name, labels...)
	r.reg.SetHelp(name, metricHelp[name])
	return h
}

// Registry exposes the underlying metrics registry (nil on a nil Recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Tracer exposes the underlying tracer (nil on a nil Recorder).
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// OpenSpans returns the number of unended spans. Nil-safe.
func (r *Recorder) OpenSpans() int64 {
	if r == nil {
		return 0
	}
	return r.tracer.OpenSpans()
}

// AddCollector registers (or replaces, by name) a scrape hook that mirrors
// externally maintained counters into the registry. Collectors run before
// every export — the Prometheus endpoint, the text dump and the expvar
// snapshot — so scraped values are as fresh as the export. Nil-safe.
func (r *Recorder) AddCollector(name string, fn func(*Registry)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.collectors == nil {
		r.collectors = map[string]func(*Registry){}
	}
	if _, ok := r.collectors[name]; !ok {
		r.corder = append(r.corder, name)
	}
	r.collectors[name] = fn
}

// runCollectors invokes every collector in registration order.
func (r *Recorder) runCollectors() {
	if r == nil {
		return
	}
	r.mu.Lock()
	fns := make([]func(*Registry), 0, len(r.corder))
	for _, n := range r.corder {
		fns = append(fns, r.collectors[n])
	}
	r.mu.Unlock()
	for _, fn := range fns {
		fn(r.reg)
	}
}

// WritePrometheus scrapes the collectors and writes the registry in
// Prometheus text exposition format. Nil-safe.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runCollectors()
	return r.reg.WritePrometheus(w)
}

// WriteOpenMetrics scrapes the collectors and writes the registry in
// OpenMetrics 1.0 text format (exemplars included). Nil-safe.
func (r *Recorder) WriteOpenMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runCollectors()
	return r.reg.WriteOpenMetrics(w)
}

// WriteMetricsText scrapes the collectors and writes the human-readable
// metrics dump. Nil-safe.
func (r *Recorder) WriteMetricsText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runCollectors()
	return r.reg.WriteText(w)
}

// MetricsSnapshot scrapes the collectors and returns the flat series map
// (the /debug/vars payload). Nil-safe.
func (r *Recorder) MetricsSnapshot() map[string]int64 {
	if r == nil {
		return map[string]int64{}
	}
	r.runCollectors()
	return r.reg.Snapshot()
}
