package parmem

// Steady-state throughput instrumentation for the pooled-arena engine.
// The benchmarks here are what `make bench-json` archives into
// BENCH_parmem.json and what `make bench-diff` gates on: allocs/op of a
// warmed engine must not regress. The companion test pins the headline
// claim — a steady-state (cache-warm, pool-warm) assignment allocates at
// most a few percent of what a cold one does — so the property is enforced
// on every `go test`, not only when someone reads benchmark output.

import (
	"context"
	"fmt"
	"testing"

	"parmem/internal/benchprog"
)

// steadyInstrs is the workload both the gate and the benchmark drive: big
// enough that a cold assignment allocates thousands of objects, small
// enough to keep the cold path cheap to run repeatedly.
func steadyInstrs() []Instruction {
	return engineStressInstrs(8, 12, 5)
}

// assignOnce runs one direct assignment with the given store (nil = cold).
func assignOnce(b testing.TB, instrs []Instruction, store CacheStore) {
	al, err := AssignValues(context.Background(), instrs, AssignConfig{
		K: 5, Method: Backtrack, Workers: 1, Store: store,
		Budget: Budget{MaxBacktrackNodes: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	if al.Degraded {
		b.Fatal("steady-state workload degraded under an unlimited budget")
	}
}

// BenchmarkAssignSteadyState contrasts the cold path (no memo, every search
// runs) with the steady state (whole-assignment memo warm, arenas pooled) —
// the configuration a long-lived compile server reaches after its first few
// requests. Run with -benchmem; the steady allocs/op column is the number
// the regression gate watches.
func BenchmarkAssignSteadyState(b *testing.B) {
	instrs := steadyInstrs()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			assignOnce(b, instrs, nil)
		}
	})
	b.Run("steady", func(b *testing.B) {
		b.ReportAllocs()
		store := memStore(b)
		assignOnce(b, instrs, store) // warm the memo
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			assignOnce(b, instrs, store)
		}
	})
}

// TestSteadyStateAllocsGate enforces the acceptance bound: steady-state
// allocs/op at most 5% of cold allocs/op.
func TestSteadyStateAllocsGate(t *testing.T) {
	instrs := steadyInstrs()
	cold := testing.AllocsPerRun(5, func() {
		assignOnce(t, instrs, nil)
	})
	store := memStore(t)
	assignOnce(t, instrs, store)
	steady := testing.AllocsPerRun(10, func() {
		assignOnce(t, instrs, store)
	})
	t.Logf("cold %.0f allocs/op, steady %.0f allocs/op (%.2f%%)", cold, steady, 100*steady/cold)
	if steady > cold*0.05 {
		t.Fatalf("steady-state allocations not amortized: steady %.0f vs cold %.0f allocs/op (limit 5%%)",
			steady, cold)
	}
}

// BenchmarkCompileBatch measures end-to-end batch throughput over the
// built-in benchmark suite, reporting programs compiled per second. The
// cached variant is the steady state of a compile server replaying a
// corpus; the uncached one is the first pass.
func BenchmarkCompileBatch(b *testing.B) {
	srcs := batchSources()
	run := func(b *testing.B, store CacheStore) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results := CompileBatch(context.Background(), srcs, Options{Modules: 8, Store: store})
			for j, r := range results {
				if r.Err != nil {
					b.Fatalf("item %d: %v", j, r.Err)
				}
			}
		}
		b.ReportMetric(float64(len(srcs))*float64(b.N)/b.Elapsed().Seconds(), "progs/sec")
	}
	b.Run("uncached", func(b *testing.B) { run(b, nil) })
	b.Run("cached", func(b *testing.B) {
		store := memStore(b)
		for _, src := range srcs { // warm: one sequential pass
			if _, err := Compile(src, Options{Modules: 8, Store: store}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		run(b, store)
	})
}

// BenchmarkCompileBatchWorkers sweeps the batch pool width on the benchmark
// corpus (uncached, so every item does full work).
func BenchmarkCompileBatchWorkers(b *testing.B) {
	srcs := batchSources()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results := CompileBatch(context.Background(), srcs, Options{Modules: 8, Workers: w})
				for j, r := range results {
					if r.Err != nil {
						b.Fatalf("item %d: %v", j, r.Err)
					}
				}
			}
			b.ReportMetric(float64(len(srcs))*float64(b.N)/b.Elapsed().Seconds(), "progs/sec")
		})
	}
}

// keep benchprog import: batchSources lives in batch_test.go.
var _ = benchprog.All
