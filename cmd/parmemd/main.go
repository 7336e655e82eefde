// Command parmemd is the compile/assign daemon: it serves the parmem
// engine (compile, assign, batch) over a length-prefixed framed TCP
// protocol, multiplexing concurrent requests over one shared worker pool
// and allocation cache.
//
// Usage:
//
//	parmemd -addr 127.0.0.1:7433 [flags]
//
// Robustness envelope (all bounded, all flag-tunable): -max-inflight and
// -max-queue size the two-stage admission gate — requests beyond both are
// shed immediately with a typed RESOURCE_EXHAUSTED, never queued
// unboundedly; -per-conn caps concurrent requests per connection;
// -max-frame-bytes rejects oversized frames with a typed error;
// -frame-timeout kills slow-loris connections; -default-deadline /
// -max-deadline / -max-budget-nodes clamp what clients may ask of the
// engine. Handler panics come back as typed INTERNAL responses while the
// process keeps serving.
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops accepting,
// refuses new requests on live connections with UNAVAILABLE, waits up to
// -drain-grace for in-flight requests to finish (their responses are always
// written), then exits 0. A second signal exits immediately.
//
// -telemetry-addr serves /metrics, /debug/vars and /debug/pprof plus the
// daemon's /healthz, /readyz and /debug/flight (readiness flips to 503 the
// moment a drain starts, so load balancers stop routing before connections
// close).
//
// -trace FILE exports every span as one JSON line, stamped with the
// distributed trace context requests carry over the wire; parmemtrace
// merges such files from a whole fleet into one Chrome trace. The flight
// recorder is always on: an in-memory ring of recent request records whose
// anomalies (slow per -flight-latency, shed, degraded, internal) snapshot
// the ring plus the request's span tree — -flight-dir spools captures to
// disk, bounded by -flight-max-captures with oldest-first eviction.
//
// -cache-dir backs the shared allocation cache with a persistent disk
// tier (an append-log cache directory, see DESIGN §13), so a restarted
// daemon serves previously compiled programs as cache hits; -cache-max-bytes
// bounds it and -cache-readonly opens it as a snapshot.
//
// Every flag is also settable through the environment as PARMEMD_<FLAG>
// (dashes to underscores, upper-cased: PARMEMD_CACHE_DIR configures
// -cache-dir). An explicit command-line flag always wins over its
// variable.
//
// The listen address is announced on stderr as "parmemd: listening on
// ADDR" once the socket is bound — with -addr :0 this is how scripts learn
// the picked port.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"parmem"
	"parmem/internal/envflag"
	"parmem/internal/server"
	"parmem/internal/telemetry"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7433", "listen address (host:port; port 0 picks a free one)")
		maxInFlight   = flag.Int("max-inflight", 8, "requests executing concurrently")
		maxQueue      = flag.Int("max-queue", 0, "admission queue length (0: 2*max-inflight, negative: no queue)")
		perConn       = flag.Int("per-conn", 4, "concurrent requests per connection")
		maxFrame      = flag.Int("max-frame-bytes", server.DefaultMaxFrame, "largest accepted frame payload")
		maxBatch      = flag.Int("max-batch-items", 64, "sources per batch request")
		defDeadline   = flag.Duration("default-deadline", 10*time.Second, "deadline for requests that carry none")
		maxDeadline   = flag.Duration("max-deadline", 60*time.Second, "clamp on client-requested deadlines")
		budgetNodes   = flag.Int64("max-budget-nodes", parmem.DefaultMaxBacktrackNodes, "clamp on client-requested search budgets")
		frameTimeout  = flag.Duration("frame-timeout", 10*time.Second, "slow-loris guard: max wall time per frame")
		workers       = flag.Int("workers", 1, "engine pool size per request")
		cacheCap      = flag.Int("cache-cap", 0, "shared allocation cache capacity (0: engine default, negative: disabled)")
		cacheDir      = flag.String("cache-dir", "", "persistent cache directory: back the allocation cache with a disk tier surviving restarts")
		cacheBytes    = flag.Int64("cache-max-bytes", 0, "disk cache size bound in bytes (0: tier default)")
		cacheReadOnly = flag.Bool("cache-readonly", false, "open the disk cache as a snapshot; serve hits but persist nothing")
		telemetryAddr = flag.String("telemetry-addr", "", "serve /metrics, /debug/*, /healthz and /readyz on this address")
		drainGrace    = flag.Duration("drain-grace", 30*time.Second, "how long a graceful drain waits for in-flight requests")
		traceFile     = flag.String("trace", "", "export spans as JSON lines to this file (merge fleet-wide with parmemtrace)")
		flightDir     = flag.String("flight-dir", "", "spool triggered flight captures to this directory")
		flightLatency = flag.Duration("flight-latency", time.Second, "latency threshold that triggers a flight capture (negative: disabled)")
		flightMax     = flag.Int("flight-max-captures", 32, "flight captures retained in memory and on disk")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "parmemd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	// Every flag is also settable as PARMEMD_<FLAG> (dashes to
	// underscores, upper-cased); an explicit flag wins over its variable.
	if err := envflag.Apply("PARMEMD", flag.CommandLine); err != nil {
		fmt.Fprintf(os.Stderr, "parmemd: %v\n", err)
		os.Exit(2)
	}

	os.Exit(server.RunDaemon("parmemd", *traceFile, *telemetryAddr, *drainGrace, func(rec *telemetry.Recorder) (server.Service, error) {
		return server.New(server.Config{
			Addr:              *addr,
			MaxInFlight:       *maxInFlight,
			MaxQueue:          *maxQueue,
			PerConnInFlight:   *perConn,
			MaxFrameBytes:     *maxFrame,
			MaxBatchItems:     *maxBatch,
			DefaultDeadline:   *defDeadline,
			MaxDeadline:       *maxDeadline,
			MaxBudgetNodes:    *budgetNodes,
			FrameTimeout:      *frameTimeout,
			Workers:           *workers,
			CacheCapacity:     *cacheCap,
			CacheDir:          *cacheDir,
			MaxCacheBytes:     *cacheBytes,
			CacheReadOnly:     *cacheReadOnly,
			Telemetry:         rec,
			FlightDir:         *flightDir,
			FlightLatency:     *flightLatency,
			FlightMaxCaptures: *flightMax,
		})
	}))
}
