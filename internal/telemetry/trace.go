package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the tracing half of the telemetry core: hierarchical spans
// with monotonic timestamps, emitted to pluggable sinks when they end.
// Everything is nil-safe — StartSpan on a nil Tracer returns a nil Span, and
// every Span method is a no-op on a nil receiver — so instrumented code
// never branches on "is telemetry on".

// Attr is one span attribute: a key with either an integer or a string
// value (IsStr selects which).
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// Span is one timed operation. Spans form a tree through ParentID.
//
// TraceHi/TraceLo carry the 128-bit distributed trace id (0 when the span is
// not part of a cross-process trace); children inherit it from their parent.
// A root span continuing a trace started in another process records that
// process's (span, proc) pair as RemoteParent/RemoteProc — span ids are only
// unique per process, so the pair is what the trace merger resolves.
//
// A Span is owned by the goroutine that started it: SetAttr/End must
// not race with each other. After End the span is immutable and may be read
// by any goroutine (sinks retain pointers).
type Span struct {
	tracer       *Tracer
	Name         string
	ID           uint64
	ParentID     uint64
	TraceHi      uint64
	TraceLo      uint64
	RemoteParent uint64        // span id of the remote parent (0 = none)
	RemoteProc   uint64        // process id of the remote parent's tracer
	Start        time.Duration // monotonic offset from the tracer epoch
	Dur          time.Duration // set by End
	Attrs        []Attr
	ended        bool
}

// SetAttr attaches an integer attribute. Safe on a nil receiver.
func (s *Span) SetAttr(key string, v int64) {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Int: v})
	}
}

// SetAttrStr attaches a string attribute. Safe on a nil receiver.
func (s *Span) SetAttrStr(key, v string) {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Str: v, IsStr: true})
	}
}

// TraceID renders the span's 128-bit trace id as 32 hex digits ("" when the
// span is untraced or nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return TraceContext{TraceHi: s.TraceHi, TraceLo: s.TraceLo}.TraceID()
}

// Context returns the trace context to propagate from this span: the span's
// trace id with this span as the (span, proc) origin. Safe on a nil
// receiver, which returns the zero (invalid) context.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceHi: s.TraceHi, TraceLo: s.TraceLo, Span: s.ID, Proc: s.tracer.ProcID()}
}

// End stamps the duration and emits the span to every sink. Ending twice is
// a no-op, as is ending a nil span.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Dur = s.tracer.now() - s.Start
	s.tracer.open.Add(-1)
	if p := s.tracer.sinks.Load(); p != nil {
		for _, sk := range *p {
			sk.SpanEnd(s)
		}
	}
}

// Tracer creates spans and routes ended spans to its sinks. Safe for
// concurrent use; a nil Tracer is valid and produces nil spans.
type Tracer struct {
	epoch  time.Time
	clock  func() time.Duration // test override; nil means time.Since(epoch)
	procID uint64               // process identity for cross-process parent refs

	sinkMu sync.Mutex             // serializes AddSink
	sinks  atomic.Pointer[[]Sink] // copy-on-write so End never locks

	nextID atomic.Uint64
	open   atomic.Int64
}

// NewTracer returns a tracer whose epoch is now, emitting to sinks. The
// tracer gets a random process id (cross-process trace merging keys remote
// parent references on it).
func NewTracer(sinks ...Sink) *Tracer {
	t := &Tracer{epoch: time.Now(), procID: randUint64()}
	t.sinks.Store(&sinks)
	return t
}

// NewTracerClock is NewTracer with an injected monotonic clock, for
// deterministic tests (golden trace files). The process id is 0 so golden
// output stays stable; tests exercising cross-process links set one with
// SetProcID.
func NewTracerClock(clock func() time.Duration, sinks ...Sink) *Tracer {
	t := &Tracer{clock: clock}
	t.sinks.Store(&sinks)
	return t
}

// ProcID returns the tracer's process id (0 on a nil tracer or a
// deterministic-clock tracer that never set one).
func (t *Tracer) ProcID() uint64 {
	if t == nil {
		return 0
	}
	return t.procID
}

// SetProcID overrides the process id — for tests that need several tracers
// with known, distinct identities. Call before spans start.
func (t *Tracer) SetProcID(id uint64) {
	if t != nil {
		t.procID = id
	}
}

// Epoch returns the wall-clock instant of monotonic offset 0 (zero for
// injected-clock tracers). Trace mergers use it as the coarse first guess
// when aligning processes.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// AddSink attaches an additional sink at runtime — the hook the daemon uses
// to feed its flight recorder from an already-constructed Recorder. Safe for
// concurrent use with End (copy-on-write); safe on a nil tracer.
func (t *Tracer) AddSink(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.sinkMu.Lock()
	defer t.sinkMu.Unlock()
	old := t.sinks.Load()
	var next []Sink
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	t.sinks.Store(&next)
}

func (t *Tracer) now() time.Duration {
	if t.clock != nil {
		return t.clock()
	}
	return time.Since(t.epoch)
}

// StartSpan begins a span under parent (nil parent = root). The span
// inherits the parent's trace id. Safe on a nil Tracer, which
// returns a nil span.
func (t *Tracer) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tracer: t, Name: name, ID: t.nextID.Add(1), Start: t.now()}
	if parent != nil {
		s.ParentID = parent.ID
		s.TraceHi, s.TraceLo = parent.TraceHi, parent.TraceLo
	}
	t.open.Add(1)
	return s
}

// StartSpanContext is StartSpan for roots that may continue a distributed
// trace: when parent is nil and ctx carries a TraceContext, the new span
// joins that trace — as a local child when the context originated in this
// process (the daemon's per-request rpc span parenting the engine's root),
// or with a remote parent reference when it came over the wire. With a
// non-nil parent it behaves exactly like StartSpan. Safe on a nil Tracer,
// before any ctx inspection, so the disabled path stays allocation-free.
func (t *Tracer) StartSpanContext(ctx context.Context, name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	if parent != nil {
		return t.StartSpan(name, parent)
	}
	s := t.StartSpan(name, nil)
	if tc, ok := TraceFromContext(ctx); ok {
		s.TraceHi, s.TraceLo = tc.TraceHi, tc.TraceLo
		if tc.Span != 0 {
			if tc.Proc == t.procID {
				s.ParentID = tc.Span
			} else {
				s.RemoteParent, s.RemoteProc = tc.Span, tc.Proc
			}
		}
	}
	return s
}

// StartSpanTrace begins a root span that joins tc's trace, recording tc's
// (span, proc) origin as the parent — local when it is this process, remote
// otherwise. It is StartSpanContext without the ctx plumbing, for ingress
// points that parsed the wire field themselves. Safe on a nil Tracer.
func (t *Tracer) StartSpanTrace(name string, tc TraceContext) *Span {
	if t == nil {
		return nil
	}
	s := t.StartSpan(name, nil)
	if tc.Valid() {
		s.TraceHi, s.TraceLo = tc.TraceHi, tc.TraceLo
		if tc.Span != 0 {
			if tc.Proc == t.procID {
				s.ParentID = tc.Span
			} else {
				s.RemoteParent, s.RemoteProc = tc.Span, tc.Proc
			}
		}
	}
	return s
}

// OpenSpans returns the number of started-but-unended spans; a quiesced
// pipeline must report 0 (the well-formedness tests assert it).
func (t *Tracer) OpenSpans() int64 {
	if t == nil {
		return 0
	}
	return t.open.Load()
}
