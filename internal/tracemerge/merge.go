// Package tracemerge turns per-process JSONL span exports into one fleet
// trace. Each input file is the output of a telemetry.JSONLSink — an
// optional process-header line followed by one SpanRecord per line, with
// timestamps on that process's private monotonic clock. The merger aligns
// the clocks (coarse wall-clock epochs, refined by cross-process
// parent/child causality), resolves remote parent references by process id,
// and renders a Chrome trace_event file with one pid lane per input
// process, ready for chrome://tracing or Perfetto.
package tracemerge

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"parmem/internal/telemetry"
)

// ProcessTrace is one parsed JSONL input: a process identity plus its spans
// in file order (which is span-end order).
type ProcessTrace struct {
	Name    string // lane label; header's process name or a caller default
	Proc    string // 16-hex tracer process id; "" when the tracer had none
	EpochUs int64  // wall-clock instant of monotonic zero; 0 when unknown
	Spans   []telemetry.SpanRecord
}

// ReadFile parses one JSONL trace file; the file name (sans directory and
// extension) is the fallback lane label when the header is absent.
func ReadFile(path string) (ProcessTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return ProcessTrace{}, err
	}
	defer f.Close()
	return Read(f, defaultLabel(path))
}

func defaultLabel(path string) string {
	base := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			base = path[i+1:]
			break
		}
	}
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '.' {
			return base[:i]
		}
	}
	return base
}

// Read parses a JSONL trace stream. Lines that parse as neither a process
// header nor a span record are an error — a truncated tail line (the
// process died mid-write) is tolerated only as the final line.
func Read(r io.Reader, name string) (ProcessTrace, error) {
	pt := ProcessTrace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	var pendingErr error
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			return ProcessTrace{}, pendingErr
		}
		var probe struct {
			Process string `json:"process"`
			Name    string `json:"name"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			// Tolerate exactly one unparseable line, and only if it turns
			// out to be the last — a crash can truncate the final write.
			pendingErr = fmt.Errorf("line %d: %v", lineNo, err)
			continue
		}
		if probe.Process != "" {
			var hdr telemetry.ProcessHeader
			if err := json.Unmarshal(line, &hdr); err != nil {
				return ProcessTrace{}, fmt.Errorf("line %d: %v", lineNo, err)
			}
			pt.Name, pt.Proc, pt.EpochUs = hdr.Process, hdr.Proc, hdr.EpochUs
			continue
		}
		var sp telemetry.SpanRecord
		if err := json.Unmarshal(line, &sp); err != nil {
			return ProcessTrace{}, fmt.Errorf("line %d: %v", lineNo, err)
		}
		pt.Spans = append(pt.Spans, sp)
	}
	if err := sc.Err(); err != nil {
		return ProcessTrace{}, err
	}
	return pt, nil
}

// TraceSummary aggregates one trace id across the merged processes.
type TraceSummary struct {
	Trace     string
	Spans     int
	Processes int // distinct input processes contributing spans
}

// Merged is the result of aligning and joining the inputs.
type Merged struct {
	Procs   []ProcessTrace
	Offsets []int64 // per-process shift (us) onto the common timeline
	Traces  []TraceSummary
}

// Merge aligns the processes onto one timeline. Coarse alignment uses the
// wall-clock epochs from the process headers; causal refinement then shifts
// any process whose spans would start before their cross-process parents —
// a child rpc cannot precede the forward that carried it, so clock skew
// shows up as exactly that violation.
func Merge(procs []ProcessTrace) *Merged {
	m := &Merged{Procs: procs, Offsets: make([]int64, len(procs))}

	// Coarse: shift each epoch-bearing process by its epoch relative to the
	// earliest one. Processes without an epoch start at zero and rely on
	// refinement.
	minEpoch := int64(0)
	for _, p := range procs {
		if p.EpochUs != 0 && (minEpoch == 0 || p.EpochUs < minEpoch) {
			minEpoch = p.EpochUs
		}
	}
	for i, p := range procs {
		if p.EpochUs != 0 {
			m.Offsets[i] = p.EpochUs - minEpoch
		}
	}

	// Index spans by (proc id, span id) for remote-parent resolution.
	type key struct {
		proc string
		id   uint64
	}
	parents := map[key]struct {
		proc int
		span telemetry.SpanRecord
	}{}
	for pi, p := range procs {
		if p.Proc == "" {
			continue
		}
		for _, sp := range p.Spans {
			parents[key{p.Proc, sp.ID}] = struct {
				proc int
				span telemetry.SpanRecord
			}{pi, sp}
		}
	}

	// Causal refinement: child start >= parent start on the common
	// timeline. Violations only ever push a process later, so iterating
	// processes-in-order a bounded number of rounds converges
	// deterministically.
	for range procs {
		changed := false
		for ci, p := range procs {
			for _, sp := range p.Spans {
				if sp.RemoteParent == "" {
					continue
				}
				pid, err := strconv.ParseUint(sp.RemoteParent, 16, 64)
				if err != nil {
					continue
				}
				par, ok := parents[key{sp.RemoteProc, pid}]
				if !ok || par.proc == ci {
					continue
				}
				childAt := sp.StartUs + m.Offsets[ci]
				parentAt := par.span.StartUs + m.Offsets[par.proc]
				if childAt < parentAt {
					m.Offsets[ci] += parentAt - childAt
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Per-trace summaries, ordered by span count (largest first) then id.
	type agg struct {
		spans int
		procs map[int]struct{}
	}
	traces := map[string]*agg{}
	for pi, p := range procs {
		for _, sp := range p.Spans {
			if sp.Trace == "" {
				continue
			}
			a := traces[sp.Trace]
			if a == nil {
				a = &agg{procs: map[int]struct{}{}}
				traces[sp.Trace] = a
			}
			a.spans++
			a.procs[pi] = struct{}{}
		}
	}
	for id, a := range traces {
		m.Traces = append(m.Traces, TraceSummary{Trace: id, Spans: a.spans, Processes: len(a.procs)})
	}
	sort.Slice(m.Traces, func(i, j int) bool {
		if m.Traces[i].Spans != m.Traces[j].Spans {
			return m.Traces[i].Spans > m.Traces[j].Spans
		}
		return m.Traces[i].Trace < m.Traces[j].Trace
	})
	return m
}

// MaxTraceProcesses returns the widest process fan of any single trace —
// the smoke-test gate for "one trace id spans the whole fleet".
func (m *Merged) MaxTraceProcesses() int {
	max := 0
	for _, t := range m.Traces {
		if t.Processes > max {
			max = t.Processes
		}
	}
	return max
}

// event is one Chrome trace_event entry with a fixed field order.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"` // always 0: one track per process
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteChrome renders the merged timeline as a Chrome trace_event JSON
// object: per-process metadata naming each pid lane, one complete ("X")
// event per span on its lane, and flow arrows ("s"/"f") for every resolved
// cross-process parent/child link. Output is deterministic for fixed input.
func (m *Merged) WriteChrome(w io.Writer) error {
	var evs []event
	for pi, p := range m.Procs {
		evs = append(evs, event{
			Name: "process_name", Ph: "M", Pid: pi + 1,
			Args: map[string]any{"name": p.Name},
		})
	}

	type key struct {
		proc string
		id   uint64
	}
	loc := map[key]event{} // resolved parent span -> its X event
	var spans []event
	for pi, p := range m.Procs {
		for _, sp := range p.Spans {
			args := map[string]any{}
			for k, v := range sp.Attrs {
				args[k] = v
			}
			args["trace"] = sp.Trace
			args["span"] = strconv.FormatUint(sp.ID, 16)
			if sp.Parent != 0 {
				args["parent"] = strconv.FormatUint(sp.Parent, 16)
			}
			if sp.RemoteParent != "" {
				args["remote_parent"] = sp.RemoteProc + "/" + sp.RemoteParent
			}
			ev := event{
				Name: sp.Name, Ph: "X", Pid: pi + 1,
				Ts: sp.StartUs + m.Offsets[pi], Dur: sp.DurUs, Args: args,
			}
			spans = append(spans, ev)
			if p.Proc != "" {
				loc[key{p.Proc, sp.ID}] = ev
			}
		}
	}

	// Flow arrows for resolved remote links, numbered in span order so the
	// output is stable.
	var flows []event
	flowID := 0
	for pi, p := range m.Procs {
		for _, sp := range p.Spans {
			if sp.RemoteParent == "" {
				continue
			}
			id, err := strconv.ParseUint(sp.RemoteParent, 16, 64)
			if err != nil {
				continue
			}
			par, ok := loc[key{sp.RemoteProc, id}]
			if !ok {
				continue
			}
			flowID++
			fid := strconv.Itoa(flowID)
			childTs := sp.StartUs + m.Offsets[pi]
			flows = append(flows,
				event{Name: "rpc", Ph: "s", Pid: par.Pid, Ts: par.Ts, ID: fid},
				event{Name: "rpc", Ph: "f", Pid: pi + 1, Ts: childTs, ID: fid},
			)
		}
	}

	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Ts != spans[j].Ts {
			return spans[i].Ts < spans[j].Ts
		}
		return spans[i].Pid < spans[j].Pid
	})
	evs = append(evs, spans...)
	evs = append(evs, flows...)

	b, err := json.MarshalIndent(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"}, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
