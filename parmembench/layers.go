package main

import (
	"fmt"
	"time"

	"parmem"
	"parmem/internal/atoms"
	"parmem/internal/conflict"
	"parmem/internal/graph"
)

// The traced run (--trace 1) reports the per-layer breakdown. It times
// calls into each layer's exported functions on the workload's own inputs
// and reads the spans the engine already emits for the phases without a
// standalone entry point (coloring, duplication, incremental patch and
// stitch) through a parmem.Recorder with a ring sink. Every workload prints
// every metric below; a layer a workload does not exercise reads 0.

// perLayer lists every per-layer metric with its unit, in print order.
var perLayer = []struct{ name, unit string }{
	{"lang.parse_ms", "ms"}, {"lang.lower_ms", "ms"}, {"dfa.rename_ms", "ms"}, {"dfa.webs", "count"},
	{"sched.ms", "ms"}, {"sched.words", "count"},
	{"conflict.build_ms", "ms"}, {"conflict.nodes", "count"}, {"conflict.edges", "count"},
	{"graph.dense_build_ms", "ms"},
	{"graph.kind.flat", "count"}, {"graph.kind.blocked", "count"}, {"graph.kind.csr", "count"},
	{"atoms.decompose_ms", "ms"}, {"atoms.count", "count"},
	{"coloring.ms", "ms"}, {"coloring.uncolored", "count"},
	{"duplication.ms", "ms"}, {"duplication.budget_nodes", "count"},
	{"assign.verify_ms", "ms"},
	{"graph.patch_ms", "ms"}, {"assign.stitch_ms", "ms"},
	{"assign.dirty_components", "count"}, {"assign.reused_components", "count"}, {"assign.reuse_ratio", "ratio"},
	{"arena.pool_gets", "count/op"}, {"arena.zeroed_bytes", "bytes/op"},
	{"machine.run_ms", "ms"}, {"machine.stall_cycles", "cycles"},
	{"client.encode_us", "us"}, {"client.decode_us", "us"},
	{"server.frame_us", "us"}, {"server.decode_us", "us"}, {"server.encode_us", "us"},
	{"gateway.route_us", "us"}, {"gateway.overhead_ms", "ms"}, {"server.queue_wait_ms", "ms"},
	{"alloccache.lookup_ms", "ms"},
	{"alloccache.hit_ratio.assign", "ratio"}, {"alloccache.hit_ratio.dup", "ratio"},
	{"alloccache.hit_ratio.atomcolor", "ratio"}, {"alloccache.hit_ratio.comp", "ratio"},
	{"diskcache.puts", "count"}, {"diskcache.bytes_written", "bytes"}, {"server.shed", "count"},
	{"telemetry.overhead_ms", "ms"},
	{"layers.sum_ms", "ms"}, {"layers.e2e_ms", "ms"}, {"layers.unattributed_ms", "ms"}, {"layers.unattributed_share", "ratio"},
	{"error_rate", "ratio"}, {"wrong_results", "count"},
}

// layers collects one traced run's per-layer figures: time samples (one
// per call, reported as their median) and plain values.
type layers struct {
	samples map[string][]float64
	values  map[string]float64
}

func newLayers() *layers {
	return &layers{samples: map[string][]float64{}, values: map[string]float64{}}
}

// since records the time elapsed from t0 as one sample of a time metric,
// converted to the metric's unit (its name ends in _ms or _us).
func (l *layers) since(name string, t0 time.Time) {
	l.sample(name, time.Since(t0))
}

func (l *layers) sample(name string, d time.Duration) {
	v := ms(d)
	if name[len(name)-3:] == "_us" {
		v *= 1000
	}
	l.samples[name] = append(l.samples[name], v)
}

// add accumulates into a plain value.
func (l *layers) add(name string, v float64) { l.values[name] += v }

// set overwrites a plain value.
func (l *layers) set(name string, v float64) { l.values[name] = v }

// get returns a metric's reported value: the median of its samples, or
// its plain value.
func (l *layers) get(name string) float64 {
	if s, ok := l.samples[name]; ok {
		return median(s)
	}
	return l.values[name]
}

// spanTimes sums the durations of the engine spans a ring sink retained
// for one call into the engine: the coloring and duplication phases of a
// cold run, or the patch and stitch phases of a delta run (a run with an
// incr_patch span). None of these has a standalone entry point. Coloring
// is the per-atom "atom" spans on the Assign engine (summed, so only
// Workers=1 callers get wall time) and the "incr_color" span, which also
// covers the atom decomposition, on the incremental engine.
func (l *layers) spanTimes(ring *parmem.RingSink) {
	var color, dup, patch, stitch time.Duration
	var delta bool
	for _, sp := range ring.Spans() {
		switch sp.Name {
		case "color", "atom", "incr_color":
			color += sp.Dur
		case "duplicate", "incr_duplicate":
			dup += sp.Dur
		case "incr_patch":
			patch += sp.Dur
			delta = true
		case "incr_stitch":
			stitch += sp.Dur
		}
	}
	if delta {
		l.sample("graph.patch_ms", patch)
		l.sample("assign.stitch_ms", stitch)
		return
	}
	l.sample("coloring.ms", color)
	l.sample("duplication.ms", dup)
}

// tracer returns a fresh recorder with a ring sink for one traced call.
func tracer() (*parmem.Recorder, *parmem.RingSink) {
	ring := parmem.NewRingSink(4096)
	return parmem.NewRecorder(ring), ring
}

// reconcile prints each named layer's median, their sum, the end-to-end
// median and the unattributed remainder, and records the last three. The
// shortfall is reported as measured: it is the time no layer accounts for.
func (l *layers) reconcile(what string, names []string, e2eMS float64) {
	fmt.Printf("reconcile %s (median per call, ms):\n", what)
	var sum float64
	for _, n := range names {
		v := l.get(n)
		if n[len(n)-3:] == "_us" {
			v /= 1000
		}
		sum += v
		fmt.Printf("  %-26s %10.4f\n", n, v)
	}
	rem := e2eMS - sum
	share := 0.0
	if e2eMS > 0 {
		share = rem / e2eMS
	}
	fmt.Printf("  %-26s %10.4f\n  %-26s %10.4f\n  %-26s %10.4f (%.1f%%)\n",
		"sum of layers", sum, "end-to-end p50", e2eMS, "unattributed", rem, 100*share)
	l.set("layers.sum_ms", sum)
	l.set("layers.e2e_ms", e2eMS)
	l.set("layers.unattributed_ms", rem)
	l.set("layers.unattributed_share", share)
}

// result renders every per-layer metric.
func (l *layers) result(t *tally) *result {
	l.set("error_rate", ratio(t.failed, t.attempted))
	l.set("wrong_results", float64(t.wrong))
	m := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		m[pl.name] = metric{l.get(pl.name), pl.unit}
		fmt.Printf("layer %-28s %14.4f %s\n", pl.name, m[pl.name].Value, pl.unit)
	}
	return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// arenaCounters reads the process-wide scratch-arena counters through a
// recorder's metrics snapshot.
func arenaCounters() (poolGets, zeroed int64) {
	snap := parmem.NewRecorder().MetricsSnapshot()
	return snap["parmem_arena_pool_gets_total"], snap["parmem_arena_zeroed_bytes_total"]
}

// tracedPair measures the workload untraced and then traced (a recorder
// with a ring sink on every call), each for 0.4 of the run's seconds. It
// records telemetry.overhead_ms and the scratch-arena work per operation of
// the traced phase, and returns the untraced latency median in ms. Both
// phases' operations count as attempted; their samples are not reported
// as end-to-end latency.
func tracedPair(l *layers, t *tally, seconds float64, pass func(int, *parmem.Recorder) time.Duration) float64 {
	t.lat, t.latAt = t.lat[:0], t.latAt[:0]
	measure(t, 0.4*seconds, false, func(i int) time.Duration { return pass(i, nil) })
	untraced := pctMS(t.lat, 50)
	t.lat, t.latAt = t.lat[:0], t.latAt[:0]
	rec, _ := tracer()
	ops := len(t.delta)
	g0, z0 := arenaCounters()
	measure(t, 0.4*seconds, false, func(i int) time.Duration { return pass(i, rec) })
	g1, z1 := arenaCounters()
	n := float64(len(t.lat) + len(t.delta) - ops)
	l.set("telemetry.overhead_ms", pctMS(t.lat, 50)-untraced)
	l.set("arena.pool_gets", float64(g1-g0)/n)
	l.set("arena.zeroed_bytes", float64(z1-z0)/n)
	return untraced
}

// engineLayers times the conflict-graph build, the dense snapshot and the
// atom decomposition on one instruction stream.
func engineLayers(l *layers, instrs []conflict.Instruction, workers int, counts bool) {
	t0 := time.Now()
	g := conflict.Build(instrs)
	l.since("conflict.build_ms", t0)
	t0 = time.Now()
	d := graph.FromGraph(g)
	l.since("graph.dense_build_ms", t0)
	t0 = time.Now()
	dec := atoms.DecomposeParallel(g, workers)
	l.since("atoms.decompose_ms", t0)
	if counts {
		l.add("conflict.nodes", float64(g.NumNodes()))
		l.add("conflict.edges", float64(g.NumEdges()))
		l.add("graph.kind."+d.BitsetKind(), 1)
		l.add("atoms.count", float64(len(dec.Atoms)))
	}
}

// allocCounts accumulates an allocation's coloring and duplication counts.
func allocCounts(l *layers, al parmem.Allocation) {
	l.add("coloring.uncolored", float64(len(al.Unassigned)))
	for _, ph := range al.Phases {
		l.add("duplication.budget_nodes", float64(ph.Nodes))
	}
}

// incrCounts accumulates an incremental run's component reuse.
func incrCounts(l *layers, st parmem.IncrementalStats) {
	l.add("assign.dirty_components", float64(st.Dirty))
	l.add("assign.reused_components", float64(st.Reused))
	l.add("assign.components", float64(st.Components))
	l.set("assign.reuse_ratio", l.values["assign.reused_components"]/l.values["assign.components"])
}
