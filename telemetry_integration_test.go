package parmem

// End-to-end telemetry contract tests: a real compile produces a
// well-formed span tree covering every pipeline phase, engine counters
// match the allocation the caller sees, batch instrumentation counts
// exactly, the Prometheus endpoint carries the cache and worker series,
// and — the other half of the zero-overhead promise — recording telemetry
// never changes what the engine computes.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"parmem/internal/benchprog"
	"parmem/internal/telemetry"
)

// spanIndex groups a ring's spans by name and indexes them by id.
func spanIndex(spans []*TraceSpan) (byName map[string][]*TraceSpan, byID map[uint64]*TraceSpan) {
	byName = map[string][]*TraceSpan{}
	byID = map[uint64]*TraceSpan{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.ID] = s
	}
	return
}

func TestCompileTelemetrySpans(t *testing.T) {
	src, err := BenchmarkSource("FFT")
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRingSink(1 << 16)
	rec := NewRecorder(ring)
	p, err := Compile(src, Options{Modules: 8, Workers: 4, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}

	if open := rec.OpenSpans(); open != 0 {
		t.Fatalf("open spans after compile = %d, want 0", open)
	}
	byName, byID := spanIndex(ring.Spans())
	for _, phase := range []string{"compile", "parse", "lower", "rename", "schedule", "assign", "phase", "verify"} {
		if len(byName[phase]) == 0 {
			t.Errorf("no %q span recorded", phase)
		}
	}
	// Every non-root span must point at an emitted parent, and the compile
	// span must be the single root.
	roots := 0
	for _, s := range ring.Spans() {
		if s.ParentID == 0 {
			roots++
			if s.Name != "compile" {
				t.Errorf("unexpected root span %q", s.Name)
			}
			continue
		}
		if byID[s.ParentID] == nil {
			t.Errorf("span %q references unknown parent %d", s.Name, s.ParentID)
		}
	}
	if roots != 1 {
		t.Fatalf("got %d root spans, want 1", roots)
	}

	// Engine counters must agree with the allocation the caller got.
	if got := rec.Counter(telemetry.MInstructions).Value(); got != int64(len(p.Instructions())) {
		t.Fatalf("instructions counter = %d, want %d", got, len(p.Instructions()))
	}
	if got := rec.Counter(telemetry.MAtoms).Value(); got != int64(p.Alloc.Atoms) {
		t.Fatalf("atoms counter = %d, want %d", got, p.Alloc.Atoms)
	}
	// One atom coloring span per decomposed atom.
	if got := len(byName["atom"]); got != p.Alloc.Atoms {
		t.Fatalf("atom spans = %d, want %d", got, p.Alloc.Atoms)
	}
	if got := rec.Counter(telemetry.MColorings).Value(); got != int64(p.Alloc.Atoms) {
		t.Fatalf("colorings counter = %d, want %d", got, p.Alloc.Atoms)
	}
}

// spanAttr returns the integer attribute key of s (0 when absent).
func spanAttr(s *TraceSpan, key string) int64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Int
		}
	}
	return 0
}

// assertOneTree fails unless spans form one well-formed tree: unique ids,
// every ParentID naming an emitted span, and exactly one root, named root.
func assertOneTree(t *testing.T, spans []*TraceSpan, root string) {
	t.Helper()
	_, byID := spanIndex(spans)
	if len(byID) != len(spans) {
		t.Fatalf("%s: %d spans share ids (%d unique)", root, len(spans), len(byID))
	}
	var roots []string
	for _, s := range spans {
		if s.ParentID == 0 {
			roots = append(roots, s.Name)
			continue
		}
		if byID[s.ParentID] == nil {
			t.Errorf("%s: span %q references unknown parent %d", root, s.Name, s.ParentID)
		}
	}
	if len(roots) != 1 || roots[0] != root {
		t.Fatalf("%s: roots = %v, want [%s]", root, roots, root)
	}
}

// TestIncrementalTelemetryTree: the incremental entry points trace one
// tree each — the decompose and atom spans of their coloring hang under
// incr_color instead of surfacing as extra roots — and a delta builds the
// conflict graph of its dirty region only.
func TestIncrementalTelemetryTree(t *testing.T) {
	instrs := toInstructions(benchprog.ChainInstrs(2, 60, 4))
	ring := NewRingSink(1 << 16)
	cfg := AssignConfig{K: 6, Workers: 1, Telemetry: NewRecorder(ring)}
	res, err := AssignValuesIncremental(context.Background(), instrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spans := ring.Spans()
	byName, _ := spanIndex(spans)
	if len(byName["atom"]) == 0 || len(byName["incr_color"]) != 1 {
		t.Fatalf("cold run traced %d atom and %d incr_color spans", len(byName["atom"]), len(byName["incr_color"]))
	}
	assertOneTree(t, spans, "assign_incremental")

	ring = NewRingSink(1 << 16)
	cfg.Telemetry = NewRecorder(ring)
	d := Delta{Changed: []ChangedInstruction{{Index: 0, Instr: Instruction{0, 1, 2}}}}
	if _, err := AssignValuesDelta(context.Background(), res, d, cfg); err != nil {
		t.Fatal(err)
	}
	spans = ring.Spans()
	byName, _ = spanIndex(spans)
	if len(byName["atom"]) == 0 || len(byName["incr_patch"]) != 1 {
		t.Fatalf("delta traced %d atom and %d incr_patch spans", len(byName["atom"]), len(byName["incr_patch"]))
	}
	// The edit touches one of the two 60-value chains: the delta builds
	// that chain's graph, not the whole stream's 120 values.
	if cs := byName["conflict"]; len(cs) != 1 {
		t.Fatalf("delta traced %d conflict spans, want 1", len(cs))
	} else if n := spanAttr(cs[0], "nodes"); n != 60 {
		t.Fatalf("delta built a conflict graph of %d nodes, want 60", n)
	}
	assertOneTree(t, spans, "assign_delta")
}

func TestBatchTelemetryExact(t *testing.T) {
	srcs := batchSources()
	rec := NewRecorder()
	results := CompileBatch(context.Background(), srcs, Options{Modules: 8, Workers: 4, Telemetry: rec})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if got := rec.Counter(telemetry.MBatchItems).Value(); got != int64(len(srcs)) {
		t.Fatalf("batch items = %d, want %d", got, len(srcs))
	}
	if got := rec.Gauge(telemetry.MBatchInFlight).Value(); got != 0 {
		t.Fatalf("batch in flight = %d, want 0 after the batch", got)
	}
	if open := rec.OpenSpans(); open != 0 {
		t.Fatalf("open spans = %d, want 0", open)
	}
}

// TestMetricsEndpointSeries drives a cached, parallel workload and asserts
// the scraped Prometheus text carries the cache, arena and phase series the
// observability story promises.
func TestMetricsEndpointSeries(t *testing.T) {
	instrs := engineStressInstrs(8, 12, 5)
	rec := NewRecorder()
	cfg := AssignConfig{K: 5, Workers: 4, Telemetry: rec, Store: memStore(t)}
	for i := 0; i < 2; i++ { // second run hits the whole-assignment memo
		if _, err := AssignValues(context.Background(), instrs, cfg); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`parmem_cache_hits_total{level="assign"} 1`,
		`parmem_cache_misses_total{level=`,
		"parmem_cache_entries ",
		"parmem_arena_gets_total ",
		"parmem_phase_duration_us_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics text missing %q\n%s", want, out)
		}
	}
}

// TestTelemetryInvisible pins the non-interference contract: the exact
// same allocation comes out whether or not a Recorder is attached.
func TestTelemetryInvisible(t *testing.T) {
	instrs := engineStressInstrs(6, 10, 4)
	plain, err := AssignValues(context.Background(), instrs, AssignConfig{K: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(NewRingSink(1 << 16))
	traced, err := AssignValues(context.Background(), instrs, AssignConfig{K: 5, Workers: 4, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Phases carry wall-clock timings that legitimately differ; everything
	// else must be bit-identical.
	plain.Phases, traced.Phases = nil, nil
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("telemetry changed the allocation:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestCacheHitPhaseElapsed: the synthetic phase report of a
// whole-assignment cache hit must still record a wall-clock duration.
func TestCacheHitPhaseElapsed(t *testing.T) {
	instrs := engineStressInstrs(4, 8, 4)
	cfg := AssignConfig{K: 5, Store: memStore(t)}
	if _, err := AssignValues(context.Background(), instrs, cfg); err != nil {
		t.Fatal(err)
	}
	al, err := AssignValues(context.Background(), instrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Phases) != 1 || !al.Phases[0].Cached {
		t.Fatalf("second run should be a whole-assignment cache hit, got %+v", al.Phases)
	}
	if al.Phases[0].Elapsed <= 0 {
		t.Fatalf("cache-hit phase Elapsed = %v, want > 0", al.Phases[0].Elapsed)
	}
}

// BenchmarkAssignTelemetry contrasts the engine with telemetry off (the
// nil fast path the allocs/op gate protects) and fully on (ring sink plus
// metrics). Not part of the bench-diff gated set; the "on" cost is
// informational.
func BenchmarkAssignTelemetry(b *testing.B) {
	instrs := steadyInstrs()
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			assignOnce(b, instrs, nil)
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		rec := NewRecorder(NewRingSink(1 << 12))
		for i := 0; i < b.N; i++ {
			al, err := AssignValues(context.Background(), instrs, AssignConfig{
				K: 5, Method: Backtrack, Workers: 1, Telemetry: rec,
				Budget: Budget{MaxBacktrackNodes: -1},
			})
			if err != nil {
				b.Fatal(err)
			}
			if al.Degraded {
				b.Fatal("degraded under unlimited budget")
			}
		}
	})
}

// copiesPlaced sums parmem_copies_placed_total over its method series.
func copiesPlaced(rec *Recorder) int64 {
	var n int64
	for k, v := range rec.MetricsSnapshot() {
		if strings.HasPrefix(k, "parmem_copies_placed_total") {
			n += v
		}
	}
	return n
}

// TestCopiesPlacedCountsFreshCopies: parmem_copies_placed_total counts
// each extra copy once, when it is placed — a multi-phase strategy does
// not count an earlier phase's copies again, and a delta that reuses
// every component places none.
func TestCopiesPlacedCountsFreshCopies(t *testing.T) {
	for _, b := range benchprog.All() {
		for _, s := range []Strategy{STOR1, STOR2, STOR3} {
			rec := NewRecorder()
			p, err := Compile(b.Source, Options{Modules: 4, Strategy: s, Telemetry: rec})
			if err != nil {
				t.Fatal(err)
			}
			al := p.Alloc
			if got, want := copiesPlaced(rec), int64(al.TotalCopies-al.SingleCopy-al.MultiCopy); got != want {
				t.Errorf("%s %v: counted %d extra copies, allocation holds %d", b.Name, s, got, want)
			}
		}
	}

	instrs := toInstructions(benchprog.ClusterInstrs(2, 14, 6))
	res, err := AssignValuesIncremental(context.Background(), instrs, AssignConfig{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if al := res.Alloc; al.TotalCopies == al.SingleCopy+al.MultiCopy {
		t.Fatal("the cluster stream needs extra copies for this check to mean anything")
	}
	rec := NewRecorder()
	if _, err := AssignValuesDelta(context.Background(), res, Delta{}, AssignConfig{K: 6, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	if got := copiesPlaced(rec); got != 0 {
		t.Errorf("a delta reusing every component counted %d extra copies", got)
	}
}
