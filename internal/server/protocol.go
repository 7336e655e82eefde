// Package server is the network face of the assignment engine: a TCP
// daemon (parmemd) speaking a length-prefixed framed protocol that
// multiplexes concurrent compile/assign requests over the shared worker
// pool, allocation cache and scratch arenas.
//
// Robustness is the organizing principle, not the plumbing. Every request
// carries a deadline and a search budget mapped onto the engine's
// ctx/budget machinery; a bounded admission gate sheds excess load with a
// typed RESOURCE_EXHAUSTED response instead of queueing unboundedly or
// hanging; a poisoned request (internal invariant panic) comes back as a
// typed INTERNAL response while the process and its sibling connections
// keep serving; malformed, oversized or truncated frames are rejected
// without tearing down the listener; and SIGTERM triggers a graceful
// drain — stop accepting, finish or deadline-cancel in-flight work, write
// every pending response, then exit. The soak harness (soak.go) proves
// all of it under injected faults.
//
// This file defines the wire protocol. A frame is a fixed 16-byte header
// followed by a JSON payload:
//
//	offset  size  field
//	0       2     magic 0x504D ("PM")
//	2       1     version (1)
//	3       1     op
//	4       8     request id (echoed verbatim in the response)
//	12      4     payload length (bounded by the server's frame cap)
//
// Integers are big-endian. Requests and responses share the framing; a
// response's op is the request's op with the high bit set. Request ids
// are chosen by the client and only need to be unique per connection,
// which is what lets one connection carry many requests concurrently.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Wire constants.
const (
	Magic   = 0x504D // "PM"
	Version = 1
	// HeaderLen is the fixed frame header size in bytes.
	HeaderLen = 16
	// DefaultMaxFrame bounds a frame's payload unless Config overrides it.
	DefaultMaxFrame = 4 << 20
)

// Op identifies a request kind. Responses echo the request op with the
// high bit set.
type Op uint8

// Request ops.
const (
	OpPing    Op = 1 // liveness + drain state probe; empty payload
	OpCompile Op = 2 // CompileRequest -> Response with an AllocSummary
	OpAssign  Op = 3 // AssignRequest -> Response with an AllocSummary
	OpBatch   Op = 4 // BatchRequest  -> Response with per-item results
	OpDelta   Op = 5 // DeltaRequest  -> Response patched from a held base

	respFlag Op = 0x80
)

// Response returns the response op for a request op.
func (o Op) Response() Op { return o | respFlag }

// IsResponse reports whether o is a response op.
func (o Op) IsResponse() bool { return o&respFlag != 0 }

// Request returns the request op a response op answers.
func (o Op) Request() Op { return o &^ respFlag }

// String names the op for logs and metric labels.
func (o Op) String() string {
	suffix := ""
	r := o
	if o.IsResponse() {
		suffix = "+resp"
		r = o.Request()
	}
	switch r {
	case OpPing:
		return "ping" + suffix
	case OpCompile:
		return "compile" + suffix
	case OpAssign:
		return "assign" + suffix
	case OpBatch:
		return "batch" + suffix
	case OpDelta:
		return "delta" + suffix
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// RequestOps lists every request op the server handles.
var RequestOps = []Op{OpPing, OpCompile, OpAssign, OpBatch, OpDelta}

// knownRequest reports whether o is an op the server handles.
func knownRequest(o Op) bool { return slices.Contains(RequestOps, o) }

// Code classifies a response. The daemon never answers a well-framed
// request with anything but one of these, so clients can switch on the
// code without parsing message text.
type Code string

const (
	// CodeOK: the request succeeded; result fields are populated.
	CodeOK Code = "OK"
	// CodeInvalidArgument: the request was malformed — unparseable
	// payload, unknown op, bad MPL source, out-of-range config.
	CodeInvalidArgument Code = "INVALID_ARGUMENT"
	// CodeResourceExhausted: admission control shed the request (global
	// queue full or per-connection concurrency cap); retry later, ideally
	// with backoff.
	CodeResourceExhausted Code = "RESOURCE_EXHAUSTED"
	// CodeDeadlineExceeded: the request's deadline expired before the
	// engine finished.
	CodeDeadlineExceeded Code = "DEADLINE_EXCEEDED"
	// CodeCanceled: the work was canceled for a reason other than its own
	// deadline (hard shutdown past the drain timeout).
	CodeCanceled Code = "CANCELED"
	// CodeUnavailable: the daemon is draining and accepts no new work.
	CodeUnavailable Code = "UNAVAILABLE"
	// CodeInternal: an internal invariant panic was recovered; the
	// response names the failing phase and the process keeps serving.
	CodeInternal Code = "INTERNAL"
)

// Frame is one decoded wire frame.
type Frame struct {
	Op      Op
	ID      uint64
	Payload []byte
}

// Framing errors. The server distinguishes them to decide whether the
// stream is still trustworthy (oversized: answer then close; bad
// magic/version: close immediately).
var (
	ErrBadMagic   = errors.New("server: bad frame magic")
	ErrBadVersion = errors.New("server: unsupported protocol version")
	ErrFrameSize  = errors.New("server: frame exceeds size cap")
)

// parseHeader decodes and validates a frame header against max payload
// bytes. It returns the op, request id and payload length.
func parseHeader(hdr *[HeaderLen]byte, max int) (Op, uint64, int, error) {
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return 0, 0, 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	op := Op(hdr[3])
	id := binary.BigEndian.Uint64(hdr[4:12])
	n := int(binary.BigEndian.Uint32(hdr[12:16]))
	if n > max {
		return op, id, n, fmt.Errorf("%w: %d bytes > %d", ErrFrameSize, n, max)
	}
	return op, id, n, nil
}

// appendFrame encodes f into one contiguous buffer so a frame is always
// written with a single Write call (no interleaving risk, and a write
// timeout never leaves a half-frame mid-stream for the peer to misparse
// as the start of the next one).
func appendFrame(buf []byte, f Frame) []byte {
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = uint8(f.Op)
	binary.BigEndian.PutUint64(hdr[4:12], f.ID)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(f.Payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, f.Payload...)
}

// writeFrame writes f to w as one Write call.
func writeFrame(w io.Writer, f Frame) error {
	_, err := w.Write(appendFrame(make([]byte, 0, HeaderLen+len(f.Payload)), f))
	return err
}

// ReadFrame reads one frame from r, rejecting payloads over max bytes;
// the exported form exists for other protocol speakers (the gateway).
// The caller owns read deadlines on the underlying connection.
func ReadFrame(r io.Reader, max int) (Frame, error) { return readFrame(r, max) }

// WriteFrame writes f to w as a single Write call; see ReadFrame.
func WriteFrame(w io.Writer, f Frame) error { return writeFrame(w, f) }

// readFrame reads one frame from r, rejecting payloads over max bytes.
// The caller owns read deadlines on the underlying connection.
func readFrame(r io.Reader, max int) (Frame, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	op, id, n, err := parseHeader(&hdr, max)
	if err != nil {
		return Frame{Op: op, ID: id}, err
	}
	f := Frame{Op: op, ID: id}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// CompileRequest is the payload of an OpCompile frame: compile one MPL
// source and return its allocation summary.
type CompileRequest struct {
	// Src is the MPL source text.
	Src string `json:"src"`
	// K is the module count; 0 means the server default (8).
	K int `json:"k,omitempty"`
	// Strategy is "STOR1" (default), "STOR2", "STOR3" or "PerRegion".
	Strategy string `json:"strategy,omitempty"`
	// Method is "hittingset" (default) or "backtrack".
	Method string `json:"method,omitempty"`
	// BudgetNodes caps the duplication search; 0 means the engine
	// default, negative is rejected (no unlimited searches over the
	// network), and the server clamps it to its own ceiling.
	BudgetNodes int64 `json:"budget_nodes,omitempty"`
	// DeadlineMS bounds this request's wall clock in milliseconds; 0
	// means the server default, and the server clamps it to its maximum.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace is the optional distributed trace context in
	// telemetry.TraceContext wire form ("traceid-spanid-procid", hex). An
	// absent or malformed field is identical to an old client: the server
	// starts a fresh trace. The wire version stays 1 — old servers ignore
	// the field entirely.
	Trace string `json:"trace,omitempty"`
}

// AssignRequest is the payload of an OpAssign frame: run memory-module
// assignment directly on instruction operand sets.
type AssignRequest struct {
	// Instrs is one operand set per long instruction word.
	Instrs [][]int `json:"instrs"`
	// K is the module count; required, 1..64.
	K int `json:"k"`
	// Strategy, Method, BudgetNodes, DeadlineMS: as in CompileRequest.
	Strategy    string `json:"strategy,omitempty"`
	Method      string `json:"method,omitempty"`
	BudgetNodes int64  `json:"budget_nodes,omitempty"`
	DeadlineMS  int64  `json:"deadline_ms,omitempty"`
	// Hold, when non-empty, retains the result server-side under this
	// session name (scoped to the connection) so later OpDelta requests can
	// patch against it instead of recompiling. Requires Strategy STOR1 (the
	// default). Each connection holds a bounded number of sessions; holding
	// a new one past the cap evicts the oldest.
	Hold string `json:"hold,omitempty"`
	// Trace: as in CompileRequest.
	Trace string `json:"trace,omitempty"`
}

// PingRequest is the (optional) payload of an OpPing frame. An empty
// payload is the classic liveness probe; a payload may carry a trace
// context so even pings correlate end to end.
type PingRequest struct {
	// Trace: as in CompileRequest.
	Trace string `json:"trace,omitempty"`
}

// ChangedOp is one in-place instruction replacement in a DeltaRequest.
type ChangedOp struct {
	// Index into the base result's instruction stream.
	Index int `json:"index"`
	// Ops is the replacement operand set.
	Ops []int `json:"ops"`
}

// DeltaRequest is the payload of an OpDelta frame: edit a held result's
// instruction stream and recompile incrementally — only the conflict
// components touched by the edit re-run the pipeline, the rest are
// stitched from the base. The configuration (K, method) is the one the
// base was compiled under; only the budget and deadline are per-request.
type DeltaRequest struct {
	// Base names the held session to patch (see AssignRequest.Hold).
	Base string `json:"base"`
	// Hold, when non-empty, retains the patched result under this name
	// (which may equal Base, replacing it).
	Hold string `json:"hold,omitempty"`
	// Changed replaces instructions in place; Removed deletes by index;
	// Added appends new operand sets. Indices refer to the base's stream.
	Changed []ChangedOp `json:"changed,omitempty"`
	Removed []int       `json:"removed,omitempty"`
	Added   [][]int     `json:"added,omitempty"`
	// BudgetNodes, DeadlineMS, Trace: as in CompileRequest.
	BudgetNodes int64  `json:"budget_nodes,omitempty"`
	DeadlineMS  int64  `json:"deadline_ms,omitempty"`
	Trace       string `json:"trace,omitempty"`
}

// IncrSummary is the wire form of the incremental reuse accounting.
type IncrSummary struct {
	Components int  `json:"components"`
	Dirty      int  `json:"dirty"`
	Reused     int  `json:"reused"`
	CacheHits  int  `json:"cache_hits,omitempty"`
	Full       bool `json:"full,omitempty"`
}

// BatchRequest is the payload of an OpBatch frame: compile many sources
// as one admission unit through the engine's batch pipeline.
type BatchRequest struct {
	// Srcs are the MPL sources; capped by the server's MaxBatchItems.
	Srcs []string `json:"srcs"`
	// K, Strategy, Method, BudgetNodes, DeadlineMS: as in CompileRequest
	// (the budget is per item, the deadline covers the whole batch).
	K           int    `json:"k,omitempty"`
	Strategy    string `json:"strategy,omitempty"`
	Method      string `json:"method,omitempty"`
	BudgetNodes int64  `json:"budget_nodes,omitempty"`
	DeadlineMS  int64  `json:"deadline_ms,omitempty"`
	// Trace: as in CompileRequest.
	Trace string `json:"trace,omitempty"`
}

// AllocSummary is the wire form of an Allocation: the Table 1 shape plus
// the degradation flag, and (for OpAssign) the full copy placement so
// clients can verify conflict-freedom end to end.
type AllocSummary struct {
	Values      int  `json:"values"`
	SingleCopy  int  `json:"single_copy"`
	MultiCopy   int  `json:"multi_copy"`
	TotalCopies int  `json:"total_copies"`
	Words       int  `json:"words,omitempty"`
	Atoms       int  `json:"atoms"`
	Degraded    bool `json:"degraded,omitempty"`
	// BudgetNodes is the search-budget spend summed over all phases, and
	// CacheHit names the first phase served from the allocation cache ("" =
	// fully computed). Both feed the flight recorder's request records and
	// give clients per-request cost visibility.
	BudgetNodes int64  `json:"budget_nodes,omitempty"`
	CacheHit    string `json:"cache_hit,omitempty"`
	// Copies maps value id -> modules holding it (OpAssign only; compile
	// summaries stay compact).
	Copies map[int][]int `json:"copies,omitempty"`
}

// ItemResult is one batch item's outcome.
type ItemResult struct {
	Code   Code          `json:"code"`
	Error  string        `json:"error,omitempty"`
	Result *AllocSummary `json:"result,omitempty"`
}

// Response is the payload of every response frame.
type Response struct {
	// Code classifies the outcome; OK is the only success.
	Code Code `json:"code"`
	// Error is the human-readable failure detail ("" on OK).
	Error string `json:"error,omitempty"`
	// Phase names the failing pipeline stage on CodeInternal.
	Phase string `json:"phase,omitempty"`
	// Draining reports (on ping) that the server is refusing new work.
	Draining bool `json:"draining,omitempty"`
	// Result is the allocation summary of a compile/assign success.
	Result *AllocSummary `json:"result,omitempty"`
	// Items are the per-item outcomes of a batch, in input order.
	Items []ItemResult `json:"items,omitempty"`
	// Held echoes the session name the result was retained under (assign
	// and delta requests that asked to Hold).
	Held string `json:"held,omitempty"`
	// Incremental reports the reuse accounting of an incremental run
	// (assign-with-Hold and delta responses).
	Incremental *IncrSummary `json:"incremental,omitempty"`
	// Trace echoes the request's 128-bit trace id (32 hex digits). When the
	// request carried no trace the server generates one at ingress and
	// reports it here, so callers can always correlate a response with the
	// server's spans, exemplars and flight captures.
	Trace string `json:"trace,omitempty"`
}
