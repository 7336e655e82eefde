package parmem

import (
	"io"
	"sort"

	"parmem/internal/arena"
	"parmem/internal/telemetry"
)

// This file is the public observability surface: re-exports of the
// internal/telemetry core plus the glue that wires process-global engine
// state (scratch arenas, allocation caches) into a Recorder's metrics
// registry. See DESIGN §10 for the span hierarchy and metric catalogue.

// Re-exported telemetry types.
type (
	// Recorder bundles a span tracer and a metrics registry; pass one via
	// Options.Telemetry or AssignConfig.Telemetry to instrument compilation.
	// A nil Recorder disables all telemetry at zero cost.
	Recorder = telemetry.Recorder
	// TraceSink receives spans as they end (implementations must be safe
	// for concurrent calls).
	TraceSink = telemetry.Sink
	// TraceSpan is one timed operation in the span tree.
	TraceSpan = telemetry.Span
	// RingSink retains the most recent spans in memory.
	RingSink = telemetry.RingSink
	// JSONLSink streams one JSON object per span to a writer.
	JSONLSink = telemetry.JSONLSink
	// ChromeSink collects spans for a Chrome trace_event file loadable in
	// chrome://tracing and Perfetto.
	ChromeSink = telemetry.ChromeSink
	// TelemetryServer is a live HTTP endpoint serving /metrics,
	// /debug/vars and /debug/pprof for one Recorder.
	TelemetryServer = telemetry.Server
)

// ErrTelemetryAddrInUse is wrapped by Recorder.Serve's error when the
// telemetry listen address is already bound by another process. Sidecar
// callers (the CLIs, parmemd) test for it with errors.Is and downgrade to
// a loud stderr note instead of failing the run.
var ErrTelemetryAddrInUse = telemetry.ErrAddrInUse

// NewRecorder returns a Recorder emitting spans to the given sinks, with
// the engine's process-global collectors (scratch-arena counters) already
// registered. Share one Recorder across every Compile/AssignValues call
// you want aggregated in one place; it is safe for concurrent use.
func NewRecorder(sinks ...TraceSink) *Recorder {
	rec := telemetry.New(sinks...)
	registerArenaCollector(rec)
	return rec
}

// NewRingSink returns a sink retaining the last n spans (n <= 0 picks a
// default of 1024).
func NewRingSink(n int) *RingSink { return telemetry.NewRingSink(n) }

// NewJSONLSink returns a sink streaming one JSON line per span to w. The
// caller owns flushing: call Flush before reading the output.
func NewJSONLSink(w io.Writer) *JSONLSink { return telemetry.NewJSONLSink(w) }

// NewChromeSink returns a collector whose Write/WriteFile emit a Chrome
// trace_event document.
func NewChromeSink() *ChromeSink { return telemetry.NewChromeSink() }

// registerArenaCollector mirrors the process-global scratch-arena counters
// into rec's registry on every export. Registration is idempotent
// (collectors replace by name).
func registerArenaCollector(rec *Recorder) {
	rec.AddCollector("arena", func(*telemetry.Registry) {
		st := arena.ReadStats()
		rec.Counter(telemetry.MArenaGets).Sync(st.Gets)
		rec.Counter(telemetry.MArenaPuts).Sync(st.Puts)
		rec.Counter(telemetry.MArenaZeroedBytes).Sync(st.ZeroedBytes)
		rec.Counter(telemetry.MArenaPoolGets).Sync(st.PoolGets)
	})
}

// registerCacheCollector mirrors an AllocCache's hit/miss/occupancy
// counters into rec's registry on every export. Levels are synced in
// sorted order so series registration order — and thus every export — is
// deterministic.
func registerCacheCollector(rec *Recorder, c *AllocCache) {
	if rec == nil || c == nil {
		return
	}
	rec.AddCollector("alloccache", func(*telemetry.Registry) {
		st := c.Stats()
		rec.Gauge(telemetry.MCacheEntries).Set(int64(st.Entries))
		levels := make([]string, 0, len(st.Levels))
		for lvl := range st.Levels {
			levels = append(levels, lvl)
		}
		sort.Strings(levels)
		for _, lvl := range levels {
			ls := st.Levels[lvl]
			rec.Counter(telemetry.MCacheHits, "level", lvl).Sync(ls.Hits)
			rec.Counter(telemetry.MCacheMisses, "level", lvl).Sync(ls.Misses)
		}
		// The second-level traffic, reported as its own pseudo-level so
		// hit-rate dashboards see memory and disk side by side.
		if st.BackingHits > 0 || st.BackingMisses > 0 {
			rec.Counter(telemetry.MCacheHits, "level", "disk").Sync(st.BackingHits)
			rec.Counter(telemetry.MCacheMisses, "level", "disk").Sync(st.BackingMisses)
		}
	})
}

// registerStoreCollector mirrors a CacheStore's disk-tier counters into
// rec's registry on every export; memory-only stores register nothing.
func registerStoreCollector(rec *Recorder, store CacheStore) {
	if rec == nil || store == nil {
		return
	}
	if _, ok := store.DiskStats(); !ok {
		return
	}
	rec.AddCollector("diskcache", func(*telemetry.Registry) {
		st, ok := store.DiskStats()
		if !ok {
			return
		}
		rec.Counter(telemetry.MDiskHits).Sync(st.Hits)
		rec.Counter(telemetry.MDiskMisses).Sync(st.Misses)
		levels := make([]string, 0, len(st.Levels))
		for lvl := range st.Levels {
			levels = append(levels, lvl)
		}
		sort.Strings(levels)
		for _, lvl := range levels {
			rec.Counter(telemetry.MDiskPuts, "level", lvl).Sync(st.Levels[lvl].Puts)
			rec.Counter(telemetry.MDiskPutBytes, "level", lvl).Sync(st.Levels[lvl].Bytes)
		}
		rec.Counter(telemetry.MDiskDroppedPuts).Sync(st.DroppedPuts)
		rec.Counter(telemetry.MDiskCorruptGets).Sync(st.CorruptGets)
		rec.Counter(telemetry.MDiskCompactions).Sync(st.Compactions)
		rec.Gauge(telemetry.MDiskRecords).Set(int64(st.Records))
		rec.Gauge(telemetry.MDiskBytes).Set(st.Bytes)
	})
}

// wireTelemetry attaches the engine collectors relevant to one call: the
// arenas and, when store is set, its memory and disk tiers. Safe and cheap
// to call per compile: AddCollector replaces by name.
func wireTelemetry(rec *Recorder, store CacheStore) {
	if rec == nil {
		return
	}
	registerArenaCollector(rec)
	registerCacheCollector(rec, storeCache(store))
	registerStoreCollector(rec, store)
}
