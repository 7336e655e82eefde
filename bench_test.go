package parmem

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§3) and the ablations called out in DESIGN.md. Each benchmark
// reports the paper's numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows the paper does:
//
//	BenchmarkTable1/*       — multi-copy and single-copy counts per program
//	                          and strategy (Table 1)
//	BenchmarkTable2/*       — t_ave/t_min and t_max/t_min per program and
//	                          machine size (Table 2)
//	BenchmarkSpeedup/*      — overall LIW speed-up (the 64-300% claim)
//	BenchmarkFigure*        — the worked examples of Figs. 1, 3, 5, 8
//	Benchmark*Scaling       — complexity claims (§2.1, §2.2)
//	BenchmarkAblation*      — design-choice ablations
import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"parmem/internal/assign"
	"parmem/internal/atoms"
	"parmem/internal/benchprog"
	"parmem/internal/cache"
	"parmem/internal/coloring"
	"parmem/internal/conflict"
	"parmem/internal/duplication"
	"parmem/internal/graph"
	"parmem/internal/oracle"
	"parmem/internal/stats"
)

// ---------------------------------------------------------------- Table 1

// BenchmarkTable1 regenerates Table 1: memory-module assignment of every
// benchmark program under each storage strategy, k=8. Reported metrics are
// the two columns of the paper's table.
func BenchmarkTable1(b *testing.B) {
	for _, spec := range benchprog.All() {
		for _, strat := range []Strategy{STOR1, STOR2, STOR3} {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, strat), func(b *testing.B) {
				var last *Program
				for i := 0; i < b.N; i++ {
					p, err := Compile(spec.Source, Options{Modules: 8, Strategy: strat})
					if err != nil {
						b.Fatal(err)
					}
					last = p
				}
				b.ReportMetric(float64(last.Alloc.SingleCopy), "single=1")
				b.ReportMetric(float64(last.Alloc.MultiCopy), "multi>1")
			})
		}
	}
}

// ---------------------------------------------------------------- Table 2

// BenchmarkTable2 regenerates Table 2: execute each benchmark at k=8 and
// k=4 and report the analytic t_ave/t_min and t_max/t_min ratios plus the
// measured ratio under interleaved array placement.
func BenchmarkTable2(b *testing.B) {
	for _, spec := range benchprog.All() {
		for _, k := range []int{8, 4} {
			b.Run(fmt.Sprintf("%s/k=%d", spec.Name, k), func(b *testing.B) {
				p, err := Compile(spec.Source, Options{Modules: k})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var times Times
				var measured float64
				for i := 0; i < b.N; i++ {
					res, err := p.Run(RunOptions{})
					if err != nil {
						b.Fatal(err)
					}
					times = stats.Analyze(res.Profiles, k)
					measured = float64(res.TransferTime) / float64(res.MemWords)
				}
				b.ReportMetric(times.RatioAve(), "tave/tmin")
				b.ReportMetric(times.RatioMax(), "tmax/tmin")
				b.ReportMetric(measured, "measured")
			})
		}
	}
}

// ---------------------------------------------------------------- Speedup

// BenchmarkSpeedup reports the overall speed-up of every benchmark over
// sequential execution (the paper: 64-300%), compiled with the optimizing
// pipeline (4x unrolling, scalar optimization, if-conversion) — the same
// configuration as the Speedups experiment driver.
func BenchmarkSpeedup(b *testing.B) {
	for _, spec := range benchprog.All() {
		b.Run(spec.Name, func(b *testing.B) {
			p, err := Compile(spec.Source, Options{Modules: 8, Unroll: 4, Optimize: true, IfConvert: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var sp float64
			for i := 0; i < b.N; i++ {
				res, err := p.Run(RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				sp = res.Speedup()
			}
			b.ReportMetric(sp, "speedup")
		})
	}
}

// ---------------------------------------------------------------- Figures

func benchFigure(b *testing.B, instrs []Instruction, k int) {
	var al Allocation
	for i := 0; i < b.N; i++ {
		var err error
		al, err = AssignValues(context.Background(), instrs, AssignConfig{K: k})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(al.MultiCopy), "replicated")
	b.ReportMetric(float64(al.TotalCopies), "copies")
}

// BenchmarkFigure1 assigns the paper's Fig. 1 instruction list (a
// conflict-free single-copy assignment exists).
func BenchmarkFigure1(b *testing.B) {
	benchFigure(b, []Instruction{{1, 2, 4}, {2, 3, 5}, {2, 3, 4}}, 3)
}

// BenchmarkFigure3 assigns the K5 example of Fig. 3 (two values removed,
// paper solutions need 7-8 total copies).
func BenchmarkFigure3(b *testing.B) {
	benchFigure(b, []Instruction{
		{1, 2, 3}, {2, 3, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 5}, {1, 4, 5},
	}, 3)
}

// BenchmarkFigure5 colors the urgency-heuristic example of Fig. 5.
func BenchmarkFigure5(b *testing.B) {
	benchFigure(b, []Instruction{
		{1, 2, 5}, {2, 3, 5}, {3, 4, 5}, {1, 4, 5}, {1, 2, 4}, {2, 3, 4},
	}, 3)
}

// BenchmarkFigure8 assigns the placement example of Fig. 8 (three copies of
// V4, paper solution 2).
func BenchmarkFigure8(b *testing.B) {
	benchFigure(b, []Instruction{
		{1, 2, 3, 5}, {4, 2, 3, 5}, {1, 2, 3, 4}, {4, 2, 1, 5},
	}, 4)
}

// ------------------------------------------- parallel assignment engine

// engineStressInstrs builds nclusters disjoint circulant clusters of n
// values each (instruction width w, same shape as cliqueInstrs). Each
// cluster is an independent atom for coloring and an independent connected
// component for duplication, so the input exposes exactly the parallelism
// the worker pool fans out over while every cluster individually stays
// conflict-heavy enough that the searches dominate the runtime.
func engineStressInstrs(nclusters, n, w int) []Instruction {
	out := make([]Instruction, 0, nclusters*n)
	for c := 0; c < nclusters; c++ {
		base := c * n
		for i := 0; i < n; i++ {
			var in Instruction
			for j := 0; j < w; j++ {
				in = append(in, base+1+(i+j)%n)
			}
			out = append(out, in)
		}
	}
	return out
}

func benchAssignEngine(b *testing.B, cfg AssignConfig) {
	instrs := engineStressInstrs(16, 14, 6)
	cfg.K = 6
	cfg.Method = Backtrack
	cfg.Budget = Budget{MaxBacktrackNodes: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al, err := AssignValues(context.Background(), instrs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if al.Degraded {
			b.Fatal("stress input degraded under an unlimited budget")
		}
	}
}

// BenchmarkAssignSequential pins the engine to one worker — the baseline
// the parallel and cached variants are measured against.
func BenchmarkAssignSequential(b *testing.B) {
	benchAssignEngine(b, AssignConfig{Workers: 1})
}

// BenchmarkAssignParallel uses the default pool (one worker per CPU);
// per-atom coloring and per-component duplication fan out.
func BenchmarkAssignParallel(b *testing.B) {
	benchAssignEngine(b, AssignConfig{Workers: 0})
}

// BenchmarkAssignCached shares one allocation cache across iterations:
// after the first (cold) assignment every iteration is a whole-assignment
// cache hit.
func BenchmarkAssignCached(b *testing.B) {
	benchAssignEngine(b, AssignConfig{Workers: 0, Store: memStore(b)})
}

// ------------------------------------------------------- complexity claims

func randomConflictGraph(r *rand.Rand, n int, deg float64) *graph.Graph {
	g := graph.New()
	for v := 0; v < n; v++ {
		g.AddNode(v)
	}
	edges := int(deg * float64(n) / 2)
	for i := 0; i < edges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdgeWeight(u, v, 1+r.Intn(3))
		}
	}
	return g
}

// BenchmarkColoringScaling exercises the O((n+e)log(n+e)) coloring claim on
// growing random graphs.
func BenchmarkColoringScaling(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := graph.FromGraph(randomConflictGraph(rand.New(rand.NewSource(1)), n, 6))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coloring.GuptaSoffa(d, coloring.Options{K: 8})
			}
		})
	}
}

// BenchmarkAtomsScaling measures clique-separator decomposition.
func BenchmarkAtomsScaling(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := graph.FromGraph(randomConflictGraph(rand.New(rand.NewSource(2)), n, 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				atoms.Decompose(d, 1)
			}
		})
	}
}

// syntheticConflicts builds an instruction stream whose coloring leaves
// values to replicate, to exercise the duplication strategies.
func syntheticConflicts(r *rand.Rand, nvals, ninstr, k int) ([]conflict.Instruction, map[int]int, []int) {
	var instrs []conflict.Instruction
	for i := 0; i < ninstr; i++ {
		set := map[int]bool{}
		for len(set) < k {
			set[r.Intn(nvals)] = true
		}
		var in conflict.Instruction
		for v := range set {
			in = append(in, v)
		}
		instrs = append(instrs, in)
	}
	col := coloring.GuptaSoffa(conflict.Snapshot(instrs, nil), coloring.Options{K: k})
	return instrs, col.Assign, col.Unassigned
}

// solveDuplication runs one duplication strategy end to end on one
// worker, the way the assign engine does: the cores, then the global
// Finish.
func solveDuplication(in duplication.Input, m duplication.Method) (duplication.Result, error) {
	copies, _, err := duplication.Cores(in, m, 1)
	if err != nil {
		return duplication.Result{}, err
	}
	return duplication.Finish(in, copies), nil
}

// BenchmarkBacktrackScaling measures the per-instruction backtracking
// duplication (paper: O(k!·i)).
func BenchmarkBacktrackScaling(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			instrs, assigned, unassigned := syntheticConflicts(rand.New(rand.NewSource(3)), 3*k, 60, k)
			in := duplication.Input{Instrs: instrs, Assigned: assigned, Unassigned: unassigned, K: k}
			b.ResetTimer()
			var res duplication.Result
			for i := 0; i < b.N; i++ {
				res, _ = solveDuplication(in, duplication.MethodBacktrack)
			}
			b.ReportMetric(float64(res.NewCopies), "newcopies")
		})
	}
}

// BenchmarkHittingSetScaling measures the hitting-set duplication
// (paper: O(k·n^2k) worst case, far lower in practice).
func BenchmarkHittingSetScaling(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			instrs, assigned, unassigned := syntheticConflicts(rand.New(rand.NewSource(3)), 3*k, 60, k)
			in := duplication.Input{Instrs: instrs, Assigned: assigned, Unassigned: unassigned, K: k}
			b.ResetTimer()
			var res duplication.Result
			for i := 0; i < b.N; i++ {
				res, _ = solveDuplication(in, duplication.MethodHittingSet)
			}
			b.ReportMetric(float64(res.NewCopies), "newcopies")
		})
	}
}

// BenchmarkMaxLoadDist measures the exact occupancy DP behind t_ave.
func BenchmarkMaxLoadDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats.MaxLoadDist(8, []int{0, 2, 4}, 6)
	}
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationAtoms compares whole-graph coloring against
// atom-by-atom coloring on the largest benchmark (COLOR).
func BenchmarkAblationAtoms(b *testing.B) {
	spec, _ := benchprog.ByName("COLOR")
	for _, disable := range []bool{false, true} {
		name := "atoms"
		if disable {
			name = "whole-graph"
		}
		b.Run(name, func(b *testing.B) {
			var p *Program
			for i := 0; i < b.N; i++ {
				var err error
				p, err = Compile(spec.Source, Options{Modules: 8, DisableAtoms: disable})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Alloc.MultiCopy), "multi>1")
		})
	}
}

// BenchmarkAblationRenaming shows the effect of definition renaming (the
// paper: renaming "would likely improve the results"). The effect is
// largest with unrolled loops: without renaming every unrolled body copy
// shares the loop variable's storage-induced dependences and serializes.
func BenchmarkAblationRenaming(b *testing.B) {
	spec, _ := benchprog.ByName("FFT")
	for _, disable := range []bool{false, true} {
		name := "renamed"
		if disable {
			name = "no-renaming"
		}
		b.Run(name, func(b *testing.B) {
			p, err := Compile(spec.Source, Options{Modules: 8, Unroll: 4, DisableRenaming: disable})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var sp float64
			for i := 0; i < b.N; i++ {
				res, err := p.Run(RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				sp = res.Speedup()
			}
			b.ReportMetric(sp, "speedup")
			b.ReportMetric(float64(len(p.Sched.Words)), "words")
		})
	}
}

// BenchmarkAblationUnroll quantifies what loop unrolling buys in machine
// speed-up on FFT.
func BenchmarkAblationUnroll(b *testing.B) {
	spec, _ := benchprog.ByName("FFT")
	for _, u := range []int{0, 2, 4, 8} {
		b.Run(fmt.Sprintf("unroll=%d", u), func(b *testing.B) {
			p, err := Compile(spec.Source, Options{Modules: 8, Unroll: u})
			if err != nil {
				b.Fatal(err)
			}
			var sp float64
			for i := 0; i < b.N; i++ {
				res, err := p.Run(RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				sp = res.Speedup()
			}
			b.ReportMetric(sp, "speedup")
		})
	}
}

// BenchmarkAblationOptimize measures what the scalar optimizer buys:
// allocated values and words with and without it (EXACT has the most
// redundant lowering temporaries).
func BenchmarkAblationOptimize(b *testing.B) {
	spec, _ := benchprog.ByName("EXACT")
	for _, enable := range []bool{false, true} {
		name := "off"
		if enable {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var p *Program
			for i := 0; i < b.N; i++ {
				var err error
				p, err = Compile(spec.Source, Options{Modules: 8, Optimize: enable})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Alloc.SingleCopy+p.Alloc.MultiCopy), "values")
			b.ReportMetric(float64(len(p.Sched.Words)), "words")
		})
	}
}

// BenchmarkAblationIfConvert measures predication on the branchiest
// benchmark (COLOR), whose hot loop is a chain of scalar conditionals.
func BenchmarkAblationIfConvert(b *testing.B) {
	spec, _ := benchprog.ByName("COLOR")
	for _, enable := range []bool{false, true} {
		name := "off"
		if enable {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			p, err := Compile(spec.Source, Options{Modules: 8, Unroll: 4, Optimize: true, IfConvert: enable})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var sp float64
			for i := 0; i < b.N; i++ {
				res, err := p.Run(RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				sp = res.Speedup()
			}
			b.ReportMetric(sp, "speedup")
		})
	}
}

// BenchmarkAblationLayout compares array storage schemes on FFT: the
// paper's uniform assumption (interleaved), the cited skewing scheme and
// the worst case.
func BenchmarkAblationLayout(b *testing.B) {
	spec, _ := benchprog.ByName("FFT")
	p, err := Compile(spec.Source, Options{Modules: 8, Unroll: 4})
	if err != nil {
		b.Fatal(err)
	}
	layouts := map[string]Layout{
		"interleaved": InterleavedLayout(8),
		"skewed":      SkewedLayout(8),
		"single":      SingleModuleLayout(0),
	}
	for _, name := range []string{"interleaved", "skewed", "single"} {
		b.Run(name, func(b *testing.B) {
			var stalls int64
			for i := 0; i < b.N; i++ {
				res, err := p.Run(RunOptions{Layout: layouts[name]})
				if err != nil {
					b.Fatal(err)
				}
				stalls = res.Stalls
			}
			b.ReportMetric(float64(stalls), "stalls")
		})
	}
}

// BenchmarkAblationMethod compares the two duplication methods on a
// conflict-heavy synthetic workload.
func BenchmarkAblationMethod(b *testing.B) {
	instrs, assigned, unassigned := syntheticConflicts(rand.New(rand.NewSource(9)), 20, 80, 6)
	in := duplication.Input{Instrs: instrs, Assigned: assigned, Unassigned: unassigned, K: 6}
	b.Run("backtrack", func(b *testing.B) {
		var res duplication.Result
		for i := 0; i < b.N; i++ {
			res, _ = solveDuplication(in, duplication.MethodBacktrack)
		}
		b.ReportMetric(float64(res.Copies.TotalCopies()), "copies")
	})
	b.Run("hittingset", func(b *testing.B) {
		var res duplication.Result
		for i := 0; i < b.N; i++ {
			res, _ = solveDuplication(in, duplication.MethodHittingSet)
		}
		b.ReportMetric(float64(res.Copies.TotalCopies()), "copies")
	})
}

// BenchmarkAblationColoring compares the urgency heuristic against DSATUR
// and first-fit by values left uncolored.
func BenchmarkAblationColoring(b *testing.B) {
	g := randomConflictGraph(rand.New(rand.NewSource(11)), 300, 14)
	d := graph.FromGraph(g)
	algos := map[string]func() coloring.Result{
		"gupta-soffa": func() coloring.Result { return coloring.GuptaSoffa(d, coloring.Options{K: 8}) },
		"dsatur":      func() coloring.Result { return oracle.DSATUR(g, 8) },
		"first-fit":   func() coloring.Result { return oracle.FirstFit(g, 8) },
	}
	for _, name := range []string{"gupta-soffa", "dsatur", "first-fit"} {
		b.Run(name, func(b *testing.B) {
			var res coloring.Result
			for i := 0; i < b.N; i++ {
				res = algos[name]()
			}
			b.ReportMetric(float64(len(res.Unassigned)), "removed")
		})
	}
}

// ------------------------------------------------------------ end to end

// BenchmarkCompile measures full-pipeline compilation of each benchmark.
func BenchmarkCompile(b *testing.B) {
	for _, spec := range benchprog.All() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(spec.Source, Options{Modules: 8}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMachine measures raw simulation speed on the largest dynamic
// workload (COLOR).
func BenchmarkMachine(b *testing.B) {
	spec, _ := benchprog.ByName("COLOR")
	p, err := Compile(spec.Source, Options{Modules: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var words int64
	for i := 0; i < b.N; i++ {
		res, err := p.Run(RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		words = res.DynamicWords
	}
	b.ReportMetric(float64(words), "words")
}

// BenchmarkSharedCache measures the §3 shared-cache application: stall
// cycles of the paper's placement against the two baselines on a skewed
// read-only lookup workload.
func BenchmarkSharedCache(b *testing.B) {
	sys := cache.System{Caches: 8}
	tr := cache.SyntheticTrace(64, 6, 400, 123)
	paper, err := cache.Assign(tr, sys)
	if err != nil {
		b.Fatal(err)
	}
	placements := map[string]cache.Placement{
		"paper":         paper,
		"round-robin":   cache.RoundRobin(tr, sys),
		"freq-balanced": cache.FrequencyBalanced(tr, sys),
	}
	for _, name := range []string{"paper", "round-robin", "freq-balanced"} {
		b.Run(name, func(b *testing.B) {
			var st cache.Stats
			for i := 0; i < b.N; i++ {
				st = cache.Simulate(tr, placements[name], sys)
			}
			b.ReportMetric(float64(st.StallCycles), "stalls")
			b.ReportMetric(float64(st.Copies), "copies")
		})
	}
}

// BenchmarkSTOR3Groups sweeps the STOR3 group count: more groups = smaller
// graphs = faster assignment but potentially more duplication.
func BenchmarkSTOR3Groups(b *testing.B) {
	spec, _ := benchprog.ByName("EXACT")
	for _, groups := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			var p *Program
			for i := 0; i < b.N; i++ {
				var err error
				p, err = Compile(spec.Source, Options{Modules: 8, Strategy: STOR3, Groups: groups})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Alloc.MultiCopy), "multi>1")
		})
	}
}

// keep assign import used even if future edits drop other references.
var _ = assign.STOR1

// BenchmarkCompileScaling measures full-pipeline cost growth with program
// size (the practical motivation for STOR2/STOR3: bounding the conflict
// graph of large programs).
func BenchmarkCompileScaling(b *testing.B) {
	for _, units := range []int{2, 8, 32} {
		src := benchprog.Synthetic(units)
		for _, strat := range []Strategy{STOR1, STOR3} {
			b.Run(fmt.Sprintf("units=%d/%s", units, strat), func(b *testing.B) {
				var p *Program
				for i := 0; i < b.N; i++ {
					var err error
					p, err = Compile(src, Options{Modules: 8, Strategy: strat})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(p.Sched.Words)), "words")
			})
		}
	}
}

// BenchmarkAblationWrites contrasts the paper's fetch-only timing model
// with the pessimistic variant that also routes result write-backs through
// the modules.
func BenchmarkAblationWrites(b *testing.B) {
	spec, _ := benchprog.ByName("TAYLOR1")
	p, err := Compile(spec.Source, Options{Modules: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, writes := range []bool{false, true} {
		name := "fetch-only"
		if writes {
			name = "with-writes"
		}
		b.Run(name, func(b *testing.B) {
			var tt int64
			for i := 0; i < b.N; i++ {
				res, err := p.Run(RunOptions{CountWrites: writes})
				if err != nil {
					b.Fatal(err)
				}
				tt = res.TransferTime
			}
			b.ReportMetric(float64(tt), "transfer")
		})
	}
}

// BenchmarkAblationExactDuplication measures the heuristics' optimality gap
// against exhaustive search on a small conflict-heavy instance (the
// question behind the paper's Figs. 3 and 8).
func BenchmarkAblationExactDuplication(b *testing.B) {
	instrs, assigned, unassigned := syntheticConflicts(rand.New(rand.NewSource(21)), 9, 12, 3)
	if len(unassigned) > 4 {
		unassigned = unassigned[:4] // keep the exhaustive search tractable
	}
	in := duplication.Input{Instrs: instrs, Assigned: assigned, Unassigned: unassigned, K: 3}
	algos := map[string]func(duplication.Input) (duplication.Result, error){
		"exact": oracle.ExactMinCopies,
		"hittingset": func(in duplication.Input) (duplication.Result, error) {
			return solveDuplication(in, duplication.MethodHittingSet)
		},
		"backtrack": func(in duplication.Input) (duplication.Result, error) {
			return solveDuplication(in, duplication.MethodBacktrack)
		},
	}
	for _, name := range []string{"exact", "hittingset", "backtrack"} {
		b.Run(name, func(b *testing.B) {
			var res duplication.Result
			for i := 0; i < b.N; i++ {
				res, _ = algos[name](in)
			}
			b.ReportMetric(float64(res.Copies.TotalCopies()), "copies")
		})
	}
}
