package parmem

// Pipeline-level coverage of the blocked-bitset boundary and of the worker
// counts. The graph package proves the representations agree probe by probe
// (internal/graph/kernels_test.go); the tests here prove the composition:
// whole assignments crossing the DenseBitsetMaxN ceiling must be
// bit-identical whether the engine runs on the flat bitset, the blocked
// bitset, the CSR fallback or the map-backed reference, at any worker count,
// also under concurrent batch traffic (run with -race via `make race` /
// `make check`).

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"parmem/internal/benchprog"
	"parmem/internal/conflict"
	"parmem/internal/graph"
)

// toInstructions adapts a benchprog workload (operand lists as [][]int) to
// the public Instruction type.
func toInstructions(ops [][]int) []Instruction {
	out := make([]Instruction, len(ops))
	for i, row := range ops {
		out[i] = Instruction(row)
	}
	return out
}

// TestBlockedBitsetBoundaryPipeline sweeps single-component chain-of-cliques
// graphs across the flat-bitset ceiling (n = 2047, 2048, 2049, then ~3k) and
// requires four full assignment runs to agree bit for bit: the default
// representation (flat below the ceiling, blocked above), the forced CSR
// fallback, the map-backed reference, and the parallel engine on the default
// representation.
func TestBlockedBitsetBoundaryPipeline(t *testing.T) {
	sizes := []int{graph.DenseBitsetMaxN - 1, graph.DenseBitsetMaxN, graph.DenseBitsetMaxN + 1}
	if !testing.Short() {
		sizes = append(sizes, 3001)
	}
	for _, n := range sizes {
		instrs := toInstructions(benchprog.ChainInstrs(1, n, 4))

		// Sanity: the component really sits on the representation the sweep
		// thinks it is exercising.
		d := graph.FromGraph(conflict.Build(instrs))
		wantKind := "flat"
		if n > graph.DenseBitsetMaxN {
			wantKind = "blocked"
		}
		if got := d.BitsetKind(); got != wantKind {
			t.Fatalf("n=%d: conflict graph built as %q, want %q", n, got, wantKind)
		}

		cfg := AssignConfig{K: 8, Workers: 1, Budget: Budget{MaxBacktrackNodes: -1}}
		base, err := AssignValues(context.Background(), instrs, cfg)
		if err != nil {
			t.Fatalf("n=%d: default backend: %v", n, err)
		}
		if base.Degraded {
			t.Fatalf("n=%d: degraded under an unlimited budget", n)
		}

		restore := graph.SetBitsetCeilings(0, 0)
		csr, err := AssignValues(context.Background(), instrs, cfg)
		restore()
		if err != nil {
			t.Fatalf("n=%d: forced-CSR backend: %v", n, err)
		}

		restore = useOracleBackends()
		ref, err := AssignValues(context.Background(), instrs, cfg)
		restore()
		if err != nil {
			t.Fatalf("n=%d: reference backend: %v", n, err)
		}

		parCfg := cfg
		parCfg.Workers = 4
		par, err := AssignValues(context.Background(), instrs, parCfg)
		if err != nil {
			t.Fatalf("n=%d: parallel engine: %v", n, err)
		}

		want := stripVolatile(base)
		for label, got := range map[string]Allocation{
			"forced-csr": csr, "reference": ref, "workers=4": par,
		} {
			if !reflect.DeepEqual(want, stripVolatile(got)) {
				t.Errorf("n=%d: %s allocation diverged from the default backend", n, label)
			}
		}
	}
}

// TestScalingWorkloadDeterminism runs the scaling benchmark's instruction
// corpora (the cluster and chain families) through the sequential and the
// parallel engine at every benchmarked pool width; allocations must match
// bit for bit. This is the correctness side of BenchmarkAssignScaling: a
// speedup that changes the answer would not count.
func TestScalingWorkloadDeterminism(t *testing.T) {
	for name, wl := range scalingCorpora() {
		cfg := wl.cfg
		cfg.Workers = 1
		seq, err := AssignValues(context.Background(), wl.instrs, cfg)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		if seq.Degraded {
			t.Fatalf("%s: degraded under an unlimited budget", name)
		}
		for _, workers := range scalingWorkerCounts[1:] {
			cfg.Workers = workers
			par, err := AssignValues(context.Background(), wl.instrs, cfg)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(stripVolatile(seq), stripVolatile(par)) {
				t.Errorf("%s/workers=%d: allocation differs from sequential", name, workers)
			}
		}
	}
}

// TestCompileBatchParallelDeterminism runs CompileBatch from both
// directions — item-level parallelism (many items, each assigned
// sequentially) and assignment-level parallelism (single-item batches whose
// inner engine fans out), the latter hammered from several concurrent batch
// callers. Every result must match the sequential baseline.
func TestCompileBatchParallelDeterminism(t *testing.T) {
	srcs := batchSources()
	want := make([]*Program, len(srcs))
	for i, src := range srcs {
		p, err := Compile(src, Options{Modules: 8, Workers: 1})
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		want[i] = p
	}

	results := CompileBatch(context.Background(), srcs, Options{Modules: 8, Workers: 4})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
		if !reflect.DeepEqual(r.Program.Alloc.Copies, want[i].Alloc.Copies) {
			t.Errorf("batch item %d: allocation differs from sequential baseline", i)
		}
	}

	const callers = 4
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, src := range srcs {
				res := CompileBatch(context.Background(), []string{src}, Options{Modules: 8, Workers: 4})
				if err := res[0].Err; err != nil {
					t.Errorf("single-item batch %d: %v", i, err)
					continue
				}
				if !reflect.DeepEqual(res[0].Program.Alloc.Copies, want[i].Alloc.Copies) {
					t.Errorf("single-item batch %d: allocation differs from sequential baseline", i)
				}
			}
		}()
	}
	wg.Wait()
}
