package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the Chrome exporter golden file")

// goldenSpans drives a fixed span tree through a deterministic clock: a
// compile root, an assign phase under it, and two atom colorings under
// that — the shape a real run produces.
func goldenSpans(rec *Recorder) {
	root := rec.StartSpan("compile", nil)
	assign := rec.StartSpan("assign", root)
	assign.SetAttrStr("strategy", "STOR1")
	assign.SetAttr("k", 8)
	a1 := rec.StartSpan("atom", assign)
	a1.SetAttr("size", 12)
	a2 := rec.StartSpan("atom", assign)
	a2.SetAttr("size", 7)
	a2.SetAttrStr("cache", "hit")
	a2.End()
	a1.End()
	assign.SetAttr("unassigned", 0)
	assign.End()
	root.End()
}

func TestChromeGolden(t *testing.T) {
	sink := NewChromeSink()
	rec := NewClock(fakeClock(), sink)
	goldenSpans(rec)

	var buf bytes.Buffer
	if err := sink.Write(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome trace drifted from golden file (run with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// A second Write over the same spans must be byte-identical: field
	// order is fixed by structs and events are fully sorted.
	var again bytes.Buffer
	if err := sink.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("Chrome exporter output is not deterministic across writes")
	}
}

// TestChromeWellFormed checks the structural contract independent of exact
// bytes: valid JSON, one process, metadata naming its one thread, monotonic
// timestamps, and parent references pointing at emitted spans.
func TestChromeWellFormed(t *testing.T) {
	sink := NewChromeSink()
	rec := NewClock(fakeClock(), sink)
	goldenSpans(rec)

	var buf bytes.Buffer
	if err := sink.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int64          `json:"pid"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	threads := map[int64]string{}
	ids := map[float64]bool{}
	lastTs := int64(-1)
	sawProcess := false
	for _, ev := range doc.TraceEvents {
		if ev.Pid != chromePid {
			t.Fatalf("event %q has pid %d, want %d", ev.Name, ev.Pid, chromePid)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				sawProcess = true
			}
			if ev.Name == "thread_name" {
				threads[ev.Tid] = ev.Args["name"].(string)
			}
		case "X":
			if ev.Ts < lastTs {
				t.Fatalf("timestamps not monotonic: %d after %d", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			if _, ok := threads[ev.Tid]; !ok {
				t.Fatalf("event %q on unnamed thread %d", ev.Name, ev.Tid)
			}
			ids[ev.Args["id"].(float64)] = true
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if !sawProcess {
		t.Fatal("missing process_name metadata")
	}
	if len(threads) != 1 || threads[0] != "pipeline" {
		t.Fatalf("thread names = %v, want one pipeline thread", threads)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if p, ok := ev.Args["parent"]; ok && !ids[p.(float64)] {
			t.Fatalf("event %q references unknown parent %v", ev.Name, p)
		}
	}
}
