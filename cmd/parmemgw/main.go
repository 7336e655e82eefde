// Command parmemgw fronts a fleet of parmemd backends: it speaks the same
// framed TCP protocol and routes every compile/assign/batch request to
// one backend by consistent hashing over the request's cache identity
// (the canonical conflict-graph hash for assigns, the source text and
// options for compiles). Identical work always lands on the same backend,
// so the fleet's allocation caches — including persistent -cache-dir
// tiers — partition the keyspace into disjoint warm shards.
//
// Usage:
//
//	parmemgw -addr 127.0.0.1:7432 -backends 127.0.0.1:7433,127.0.0.1:7434
//
// Backend health is probed continuously (protocol ping, which also sees a
// backend's drain state; -ready-urls adds per-backend /readyz probes).
// Requests whose preferred backend is down or draining fail over along
// the hash ring; only when no backend is routable does the client see a
// typed UNAVAILABLE. Pings are answered by the gateway itself.
//
// Every flag is also settable through the environment as PARMEMGW_<FLAG>
// (dashes to underscores, upper-cased). An explicit flag wins over its
// variable. On SIGTERM or SIGINT the gateway drains gracefully, waiting
// up to -drain-grace for in-flight forwards.
//
// The listen address is announced on stderr as "parmemgw: listening on
// ADDR" once the socket is bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parmem/internal/envflag"
	"parmem/internal/gateway"
	"parmem/internal/server"
	"parmem/internal/telemetry"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7432", "listen address (host:port; port 0 picks a free one)")
		backends      = flag.String("backends", "", "comma-separated parmemd addresses to route across (required)")
		readyURLs     = flag.String("ready-urls", "", "comma-separated /readyz URLs, matched to -backends by position (optional)")
		replicas      = flag.Int("replicas", 0, "virtual nodes per backend on the hash ring (0: default)")
		maxFrame      = flag.Int("max-frame-bytes", server.DefaultMaxFrame, "largest accepted frame payload")
		frameTimeout  = flag.Duration("frame-timeout", 10*time.Second, "slow-loris guard: max wall time per frame read, and bound on response writes")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "backend health probe period")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "bound on one health probe")
		fwdTimeout    = flag.Duration("forward-timeout", 60*time.Second, "bound on one forwarded request")
		telemetryAddr = flag.String("telemetry-addr", "", "serve /metrics, /debug/*, /healthz and /readyz on this address")
		drainGrace    = flag.Duration("drain-grace", 30*time.Second, "how long a graceful drain waits for in-flight forwards")
		traceFile     = flag.String("trace", "", "export spans as JSON lines to this file (merge fleet-wide with parmemtrace)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "parmemgw: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if err := envflag.Apply("PARMEMGW", flag.CommandLine); err != nil {
		fmt.Fprintf(os.Stderr, "parmemgw: %v\n", err)
		os.Exit(2)
	}
	if *backends == "" {
		fmt.Fprintln(os.Stderr, "parmemgw: -backends is required")
		os.Exit(2)
	}

	os.Exit(server.RunDaemon("parmemgw", *traceFile, *telemetryAddr, *drainGrace, func(rec *telemetry.Recorder) (server.Service, error) {
		return gateway.New(gateway.Config{
			Addr:           *addr,
			Backends:       splitList(*backends),
			ReadyURLs:      splitList(*readyURLs),
			Replicas:       *replicas,
			MaxFrameBytes:  *maxFrame,
			FrameTimeout:   *frameTimeout,
			ProbeInterval:  *probeInterval,
			ProbeTimeout:   *probeTimeout,
			ForwardTimeout: *fwdTimeout,
			Telemetry:      rec,
		})
	}))
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
