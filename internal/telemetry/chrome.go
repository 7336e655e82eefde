package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
)

// ChromeSink collects spans and writes them as a Chrome trace_event JSON
// document loadable in chrome://tracing and Perfetto. Spans become "X"
// (complete) events on one thread, the "pipeline", which "M" (metadata)
// events name along with the process.
type ChromeSink struct {
	mu    sync.Mutex
	spans []*Span
}

// NewChromeSink returns an empty collector.
func NewChromeSink() *ChromeSink { return &ChromeSink{} }

// SpanEnd implements Sink.
func (c *ChromeSink) SpanEnd(s *Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// chromeEvent is one trace_event record. Field order is fixed by the struct
// (and args keys are sorted by encoding/json), so output is byte-stable for
// a given span set — the golden-file test depends on that.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"` // pointer so dur 0 still prints for X events
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"` // always 0, the pipeline thread
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the document wrapper Perfetto and chrome://tracing accept.
type chromeDoc struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

const chromePid = 1

// Write renders the collected spans as a trace_event document. Events are
// sorted by timestamp (then span id), so ts is monotonically non-decreasing
// — some viewers require it and the tests assert it. Write may be called
// while spans are still arriving; it snapshots the current set.
func (c *ChromeSink) Write(w io.Writer) error {
	c.mu.Lock()
	spans := make([]*Span, len(c.spans))
	copy(spans, c.spans)
	c.mu.Unlock()

	events := make([]chromeEvent, 0, len(spans)+2)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid,
		Args: map[string]any{"name": "parmem"},
	}, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: chromePid,
		Args: map[string]any{"name": "pipeline"},
	})

	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	for _, s := range spans {
		dur := s.Dur.Microseconds()
		args := attrMap(s.Attrs)
		if s.ParentID != 0 {
			if args == nil {
				args = map[string]any{}
			}
			args["parent"] = s.ParentID
		}
		if args == nil {
			args = map[string]any{}
		}
		args["id"] = s.ID
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "parmem", Ph: "X",
			Ts: s.Start.Microseconds(), Dur: &dur,
			Pid: chromePid, Args: args,
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeDoc{DisplayTimeUnit: "ms", TraceEvents: events})
}

// WriteFile writes the document to path.
func (c *ChromeSink) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
