package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"parmem/internal/telemetry"
)

// The flight recorder is the daemon's always-on anomaly capture: a bounded
// ring of completed request records (op, trace id, latency, queue wait,
// budget spend, cache hit, outcome) that costs one mutexed append per
// request. When a request trips a trigger — latency over threshold, a
// RESOURCE_EXHAUSTED shed, a degraded allocation, or a panic-recovered
// INTERNAL — the recorder snapshots the ring plus the request's full span
// tree into a capture, keeps it in a bounded in-memory list, and (when
// Config.FlightDir is set) spools it to disk with oldest-first eviction.
// Captures are served over /debug/flight on the telemetry endpoint, and a
// per-reason throttle keeps a pathological steady state (every request slow)
// from turning the spool into a write amplifier.

// Flight trigger reasons.
const (
	flightSlow     = "slow"
	flightShed     = "shed"
	flightDegraded = "degraded"
	flightInternal = "internal"
)

// FlightRecord is one completed request as the ring retains it.
type FlightRecord struct {
	Op          string `json:"op"`
	Trace       string `json:"trace,omitempty"`
	Code        string `json:"code"`
	StartUnixUS int64  `json:"start_unix_us"`
	LatencyUS   int64  `json:"latency_us"`
	QueueUS     int64  `json:"queue_us"`
	BudgetNodes int64  `json:"budget_nodes,omitempty"`
	CacheHit    string `json:"cache_hit,omitempty"`
	Degraded    bool   `json:"degraded,omitempty"`
}

// FlightCapture is one triggered snapshot: the record that tripped the
// trigger, the ring at that moment (oldest first), and the triggering
// request's span tree.
type FlightCapture struct {
	Name    string                 `json:"name"`
	Reason  string                 `json:"reason"`
	Trigger FlightRecord           `json:"trigger"`
	Ring    []FlightRecord         `json:"ring"`
	Spans   []telemetry.SpanRecord `json:"spans,omitempty"`
}

// flightRecorder holds the ring, the recent-span buffer and the spool.
type flightRecorder struct {
	latency     time.Duration // latency trigger threshold; <= 0 disables
	minInterval time.Duration // per-reason capture throttle
	dir         string        // spool directory; "" = in-memory only
	maxCaptures int

	spans *telemetry.RingSink // recent ended spans, capture source

	mCaptures func(reason string) *telemetry.Counter
	mDropped  func(reason string) *telemetry.Counter

	mu       sync.Mutex
	ring     []FlightRecord
	next     int
	seq      int64 // capture sequence number (continues past existing spool files)
	last     map[string]time.Time
	captures []*FlightCapture // newest last, bounded by maxCaptures
}

// newFlightRecorder builds the recorder from the server config. The span
// ring must be attached to the Recorder by the caller (telemetry may be
// nil, in which case captures carry no spans but the ring still works).
func newFlightRecorder(cfg Config) *flightRecorder {
	fr := &flightRecorder{
		latency:     cfg.FlightLatency,
		minInterval: cfg.FlightMinInterval,
		dir:         cfg.FlightDir,
		maxCaptures: cfg.FlightMaxCaptures,
		spans:       telemetry.NewRingSink(4096),
		ring:        make([]FlightRecord, 0, cfg.FlightRing),
		last:        map[string]time.Time{},
		mCaptures: func(reason string) *telemetry.Counter {
			return cfg.Telemetry.Counter(telemetry.MServerFlightCaptures, "reason", reason)
		},
		mDropped: func(reason string) *telemetry.Counter {
			return cfg.Telemetry.Counter(telemetry.MServerFlightDropped, "reason", reason)
		},
	}
	if fr.dir != "" {
		if err := os.MkdirAll(fr.dir, 0o755); err == nil {
			fr.seq = maxSpoolSeq(fr.dir)
		}
	}
	return fr
}

// record appends one completed request and fires a capture if it trips a
// trigger. Called once per request, before the response is written.
func (fr *flightRecorder) record(rec FlightRecord) {
	reason := fr.triggerReason(rec)
	fr.mu.Lock()
	if len(fr.ring) < cap(fr.ring) {
		fr.ring = append(fr.ring, rec)
	} else {
		fr.ring[fr.next] = rec
		fr.next = (fr.next + 1) % len(fr.ring)
	}
	if reason == "" {
		fr.mu.Unlock()
		return
	}
	now := time.Now()
	if last, ok := fr.last[reason]; ok && now.Sub(last) < fr.minInterval {
		fr.mu.Unlock()
		fr.mDropped(reason).Inc()
		return
	}
	fr.last[reason] = now
	fr.seq++
	fc := &FlightCapture{
		Name:    fmt.Sprintf("flight-%06d-%s-%s.json", fr.seq, reason, shortTrace(rec.Trace)),
		Reason:  reason,
		Trigger: rec,
		Ring:    fr.ringLocked(),
	}
	fr.mu.Unlock()

	// Build the capture fully before publishing it: once it is on the
	// captures list, /debug/flight may serve it concurrently.
	fc.Spans = fr.traceSpans(rec.Trace)
	fr.mu.Lock()
	fr.captures = append(fr.captures, fc)
	if len(fr.captures) > fr.maxCaptures {
		fr.captures = fr.captures[len(fr.captures)-fr.maxCaptures:]
	}
	fr.mu.Unlock()

	fr.mCaptures(reason).Inc()
	if fr.dir != "" {
		if err := fr.spool(fc); err != nil {
			fr.mDropped(reason).Inc()
		}
	}
}

// triggerReason classifies a record against the trigger taxonomy; "" means
// no trigger. Order matters: a panic is the strongest signal, then an
// explicit shed, then a degraded result, then plain slowness.
func (fr *flightRecorder) triggerReason(rec FlightRecord) string {
	switch {
	case rec.Code == string(CodeInternal):
		return flightInternal
	case rec.Code == string(CodeResourceExhausted):
		return flightShed
	case rec.Degraded:
		return flightDegraded
	case fr.latency > 0 && rec.LatencyUS >= fr.latency.Microseconds():
		return flightSlow
	}
	return ""
}

// ringLocked snapshots the ring oldest-first; caller holds fr.mu.
func (fr *flightRecorder) ringLocked() []FlightRecord {
	out := make([]FlightRecord, 0, len(fr.ring))
	out = append(out, fr.ring[fr.next:]...)
	out = append(out, fr.ring[:fr.next]...)
	return out
}

// Records returns the ring contents, oldest first.
func (fr *flightRecorder) Records() []FlightRecord {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.ringLocked()
}

// Captures returns the retained captures, oldest first.
func (fr *flightRecorder) Captures() []*FlightCapture {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]*FlightCapture, len(fr.captures))
	copy(out, fr.captures)
	return out
}

// Capture returns the retained capture with the given name.
func (fr *flightRecorder) Capture(name string) (*FlightCapture, bool) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for _, c := range fr.captures {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// traceSpans extracts the spans of one trace from the recent-span ring,
// oldest first (the ring is already end-ordered).
func (fr *flightRecorder) traceSpans(traceID string) []telemetry.SpanRecord {
	tc, ok := telemetry.ParseTraceContext(traceID)
	if !ok {
		return nil
	}
	var out []telemetry.SpanRecord
	for _, sp := range fr.spans.Spans() {
		if sp.TraceHi == tc.TraceHi && sp.TraceLo == tc.TraceLo {
			out = append(out, telemetry.MakeSpanRecord(sp))
		}
	}
	return out
}

// spool writes a capture to the directory and evicts the oldest files past
// the cap. Names embed a zero-padded sequence number, so lexicographic
// order is arrival order and eviction is a sorted-listing prefix removal.
func (fr *flightRecorder) spool(c *FlightCapture) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(fr.dir, c.Name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	names := spoolNames(fr.dir)
	for len(names) > fr.maxCaptures {
		os.Remove(filepath.Join(fr.dir, names[0])) //nolint:errcheck // best-effort eviction
		names = names[1:]
	}
	return nil
}

// spoolNames lists the spool's capture files in sequence order.
func spoolNames(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "flight-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// maxSpoolSeq scans an existing spool so a restarted daemon continues the
// sequence instead of overwriting survivors.
func maxSpoolSeq(dir string) int64 {
	var max int64
	for _, n := range spoolNames(dir) {
		var seq int64
		if _, err := fmt.Sscanf(n, "flight-%d-", &seq); err == nil && seq > max {
			max = seq
		}
	}
	return max
}

// shortTrace renders the 16-digit prefix of a trace id for file names.
func shortTrace(traceID string) string {
	if len(traceID) >= 16 {
		return traceID[:16]
	}
	if traceID == "" {
		return "untraced"
	}
	return traceID
}
