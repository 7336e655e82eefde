package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Sink receives spans as they end. Implementations must be safe for
// concurrent SpanEnd calls: worker-pool goroutines end spans in parallel.
// Spans passed to SpanEnd are immutable; sinks may retain them.
//
// Ownership rule: the code that constructs a sink owns its lifecycle — the
// Recorder never closes or flushes sinks, so a CLI that writes a trace file
// flushes its own ChromeSink/JSONLSink on every exit path (the same
// discipline as pprof profiles).
type Sink interface {
	SpanEnd(s *Span)
}

// RingSink retains the most recent spans in a fixed-size ring buffer — the
// always-on, allocation-bounded sink for live introspection and tests.
type RingSink struct {
	mu    sync.Mutex
	buf   []*Span
	next  int
	total int64
}

// NewRingSink returns a ring retaining the last n spans (n <= 0 picks 1024).
func NewRingSink(n int) *RingSink {
	if n <= 0 {
		n = 1024
	}
	return &RingSink{buf: make([]*Span, 0, n)}
}

// SpanEnd implements Sink.
func (r *RingSink) SpanEnd(s *Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
		return
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
}

// Spans returns the retained spans, oldest first.
func (r *RingSink) Spans() []*Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns how many spans the ring has seen (including evicted ones).
func (r *RingSink) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// SpanRecord fixes the field order of one exported span record — the shape
// of a JSONL line, and of the span trees embedded in flight captures. Trace
// ids render as 32 hex digits, remote parent references as 16 (span) + 16
// (proc) so the merger can resolve them across files.
type SpanRecord struct {
	Name         string         `json:"name"`
	ID           uint64         `json:"id"`
	Parent       uint64         `json:"parent,omitempty"`
	Trace        string         `json:"trace,omitempty"`
	RemoteParent string         `json:"remote_parent,omitempty"`
	RemoteProc   string         `json:"remote_proc,omitempty"`
	StartUs      int64          `json:"start_us"`
	DurUs        int64          `json:"dur_us"`
	Attrs        map[string]any `json:"attrs,omitempty"`
}

// MakeSpanRecord renders an ended span to its export shape.
func MakeSpanRecord(s *Span) SpanRecord {
	rec := SpanRecord{
		Name:    s.Name,
		ID:      s.ID,
		Parent:  s.ParentID,
		Trace:   s.TraceID(),
		StartUs: s.Start.Microseconds(),
		DurUs:   s.Dur.Microseconds(),
		Attrs:   attrMap(s.Attrs),
	}
	if s.RemoteParent != 0 {
		var b [16]byte
		putHex64(b[:], s.RemoteParent)
		rec.RemoteParent = string(b[:])
		putHex64(b[:], s.RemoteProc)
		rec.RemoteProc = string(b[:])
	}
	return rec
}

// ProcessHeader is the first line of a JSONL trace file: the process name,
// the tracer's process id, and the wall-clock instant of monotonic offset 0
// in unix microseconds. The merger uses the name to label the lane, the id
// to resolve remote parent references, and the epoch as the coarse clock
// alignment before parent/child refinement.
type ProcessHeader struct {
	Process string `json:"process"`
	Proc    string `json:"proc"`
	EpochUs int64  `json:"epoch_us"`
}

// attrMap converts span attributes to a JSON object; encoding/json sorts
// map keys, so the rendering is deterministic.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsStr {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Int
		}
	}
	return m
}

// JSONLSink streams one JSON object per ended span to a writer. Errors are
// sticky and reported by Flush.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// WriteProcess emits the process header line. Call it once, right after
// constructing the sink, before any span ends; name defaults the merger's
// lane label, tracer supplies the process id and epoch (both may be zero for
// deterministic tracers).
func (j *JSONLSink) WriteProcess(name string, tracer *Tracer) {
	hdr := ProcessHeader{Process: name}
	if id := tracer.ProcID(); id != 0 {
		var b [16]byte
		putHex64(b[:], id)
		hdr.Proc = string(b[:])
	}
	if ep := tracer.Epoch(); !ep.IsZero() {
		hdr.EpochUs = ep.UnixMicro()
	}
	b, err := json.Marshal(hdr)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		j.err = err
	}
}

// SpanEnd implements Sink.
func (j *JSONLSink) SpanEnd(s *Span) {
	b, err := json.Marshal(MakeSpanRecord(s))
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		j.err = err
	}
}

// Flush drains the buffer and returns the first error encountered.
func (j *JSONLSink) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}
