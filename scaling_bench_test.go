package parmem

// Multi-core scaling harness (ROADMAP item 3). BenchmarkAssignScaling sweeps
// the engine's worker-pool width over fixed workloads and reports the worker
// count and the machine's core count as metrics; `make bench-scaling` (and
// the CI smoke `make bench-scaling-smoke`) archive the rows through
// cmd/bench2json, which derives the speedup/efficiency curve from the
// workers=1 sibling of each row. Worker counts are a fixed ladder — not
// NumCPU-derived — so benchmark names, and with them the archived curve and
// the bench-diff gate, are stable across machines.
//
// The correctness side lives in scaling_test.go: every corpus here is also
// run through TestScalingWorkloadDeterminism, which pins parallel output
// bit-identical to sequential at every benchmarked pool width.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"parmem/internal/benchprog"
)

// scalingWorkerCounts is the pool-width ladder every scaling benchmark and
// determinism test sweeps. workers=1 is the sequential baseline bench2json
// computes speedups against.
var scalingWorkerCounts = []int{1, 2, 4, 8}

// scalingCorpus is one instruction-level scaling workload.
type scalingCorpus struct {
	instrs []Instruction
	cfg    AssignConfig
}

// scalingCorpora returns the assignment workloads of the scaling sweep:
//
//   - clusters: 16 disjoint 14-value circulant cliques — below the
//     decomposition's fan-out floor, so every width runs the same
//     sequential engine; searches dominant.
//   - chains: 8 disjoint 400-node chain-of-cliques components — wide, sparse,
//     graph-phase dominant, still on the flat bitset.
//   - blocked3k: one 2600-node chain past the flat-bitset ceiling — the
//     blocked-representation workload (single component, so it measures the
//     representation, not the pool).
func scalingCorpora() map[string]scalingCorpus {
	unlimited := Budget{MaxBacktrackNodes: -1}
	return map[string]scalingCorpus{
		"clusters": {
			instrs: toInstructions(benchprog.ClusterInstrs(16, 14, 6)),
			cfg:    AssignConfig{K: 6, Method: Backtrack, Budget: unlimited},
		},
		"chains": {
			instrs: toInstructions(benchprog.ChainInstrs(8, 400, 4)),
			cfg:    AssignConfig{K: 8, Budget: unlimited},
		},
		"blocked3k": {
			instrs: toInstructions(benchprog.ChainInstrs(1, 2600, 4)),
			cfg:    AssignConfig{K: 8, Budget: unlimited},
		},
	}
}

// BenchmarkAssignScaling is the speedup/efficiency harness: each workload ×
// worker-count cell assigns the same input with a different pool width.
// Reported metrics: workers (the pool width of the cell) and cores
// (runtime.NumCPU() of the machine the curve was measured on — efficiency
// past the core count is not expected to hold).
func BenchmarkAssignScaling(b *testing.B) {
	cores := float64(runtime.NumCPU())
	names := []string{"clusters", "chains", "blocked3k"}
	corpora := scalingCorpora()
	for _, name := range names {
		wl := corpora[name]
		for _, workers := range scalingWorkerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				cfg := wl.cfg
				cfg.Workers = workers
				for i := 0; i < b.N; i++ {
					al, err := AssignValues(context.Background(), wl.instrs, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if al.Degraded {
						b.Fatal("scaling workload degraded under an unlimited budget")
					}
				}
				b.ReportMetric(float64(workers), "workers")
				b.ReportMetric(cores, "cores")
			})
		}
	}
	// The benchprog suite end to end: six full compiles per op, the pool
	// width applied to each compile's assignment engine.
	for _, workers := range scalingWorkerCounts {
		b.Run(fmt.Sprintf("suite/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, spec := range benchprog.All() {
					if _, err := Compile(spec.Source, Options{Modules: 8, Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(workers), "workers")
			b.ReportMetric(cores, "cores")
		})
	}
}
