package parmem

// Incremental recompilation benchmark (the tentpole headline):
// BenchmarkAssignIncremental sweeps delta sizes 1/5/25 over the chain and
// cluster workloads of the scaling corpus plus the benchprog suite, with a
// cold full-recompile sibling per workload. `make bench-run` archives the
// rows in BENCH_parmem.json and cmd/bench2json derives incr_speedup =
// ns/op(full) / ns/op(delta=N) for every delta row. The acceptance bar:
// delta=1 on the 3200-node chains workload runs in at most 1/5 of the full
// recompile time (incr_speedup >= 5).
//
// Each delta op forks from the SAME retained base (results are immutable),
// editing a fixed set of instruction indices, so every iteration performs
// identical work: partition the edited stream, build the dirty
// components' conflict graph, recompute them, stitch the rest from the
// base. No cache
// is configured — the reuse measured is structural, not memoized.

import (
	"context"
	"fmt"
	"testing"

	"parmem/internal/benchprog"
)

// incrDeltaSizes is the edit-size ladder of the sweep.
var incrDeltaSizes = []int{1, 5, 25}

// incrBenchWorkloads returns the instruction-level workloads of the sweep,
// mirroring the scaling corpus shapes (chains is the 3k-node headline).
func incrBenchWorkloads() []struct {
	name   string
	instrs []Instruction
	cfg    AssignConfig
} {
	unlimited := Budget{MaxBacktrackNodes: -1}
	return []struct {
		name   string
		instrs []Instruction
		cfg    AssignConfig
	}{
		{
			name:   "chains",
			instrs: toInstructions(benchprog.ChainInstrs(8, 400, 4)),
			cfg:    AssignConfig{K: 8, Workers: 1, Budget: unlimited},
		},
		{
			name:   "clusters",
			instrs: toInstructions(benchprog.ClusterInstrs(16, 14, 6)),
			cfg:    AssignConfig{K: 6, Method: Backtrack, Workers: 1, Budget: unlimited},
		},
	}
}

// benchDelta builds a delta touching n fixed, evenly spread instruction
// indices. Each touched instruction is replaced by a copy of itself: the
// graph shape is unchanged (so every iteration recomputes the same dirty
// region), but the touched components re-run the pipeline exactly as they
// would for a real small edit.
func benchDelta(instrs []Instruction, n int) Delta {
	if n > len(instrs) {
		n = len(instrs)
	}
	var d Delta
	for j := 0; j < n; j++ {
		idx := j * len(instrs) / n
		d.Changed = append(d.Changed, ChangedInstruction{
			Index: idx,
			Instr: append(Instruction(nil), instrs[idx]...),
		})
	}
	return d
}

func BenchmarkAssignIncremental(b *testing.B) {
	ctx := context.Background()
	for _, wl := range incrBenchWorkloads() {
		b.Run(wl.name+"/full", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := AssignValues(ctx, wl.instrs, wl.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, n := range incrDeltaSizes {
			b.Run(fmt.Sprintf("%s/delta=%d", wl.name, n), func(b *testing.B) {
				base, err := AssignValuesIncremental(ctx, wl.instrs, wl.cfg)
				if err != nil {
					b.Fatal(err)
				}
				d := benchDelta(wl.instrs, n)
				var last IncrementalStats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := AssignValuesDelta(ctx, base, d, wl.cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = res.Incremental
				}
				b.ReportMetric(float64(last.Dirty), "dirty-comps")
				b.ReportMetric(float64(last.Reused), "reused-comps")
			})
		}
	}

	// The benchprog suite: every program's instruction stream held as a
	// base, one delta per program per op (delta sizes clamped to the
	// stream). The full sibling cold-assigns every stream.
	type suiteBase struct {
		instrs []Instruction
		base   *AssignResult
		cfg    AssignConfig
	}
	var suite []suiteBase
	for _, spec := range benchprog.All() {
		p, err := Compile(spec.Source, Options{Modules: 8})
		if err != nil {
			b.Fatal(err)
		}
		instrs := p.Instructions()
		if len(instrs) == 0 {
			continue
		}
		cfg := AssignConfig{K: 8, Workers: 1, Budget: Budget{MaxBacktrackNodes: -1}}
		base, err := AssignValuesIncremental(ctx, instrs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		suite = append(suite, suiteBase{instrs: instrs, base: base, cfg: cfg})
	}
	b.Run("suite/full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, sb := range suite {
				if _, err := AssignValues(ctx, sb.instrs, sb.cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, n := range incrDeltaSizes {
		b.Run(fmt.Sprintf("suite/delta=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, sb := range suite {
					if _, err := AssignValuesDelta(ctx, sb.base, benchDelta(sb.instrs, n), sb.cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
