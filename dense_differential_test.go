package parmem

// Differential testing of the dense graph core: every compilation must
// produce a bit-identical allocation whether the hot assignment phases run
// on the dense CSR/bitset snapshot (the default) or on the map-backed
// reference implementations in internal/oracle, swapped in through
// assign.SetBackends. This is the pipeline-level
// proof of the determinism contract stated on graph.Dense — unit tests pin
// the individual algorithms, this pins their composition, including the
// sequential and parallel engines.

import (
	"math/rand"
	"reflect"
	"testing"

	"parmem/internal/assign"
	"parmem/internal/benchprog"
	"parmem/internal/oracle"
)

// useOracleBackends swaps the engine's clique-separator decomposition and
// urgency coloring for the map-graph references in internal/oracle until
// the returned func runs. Tests that call it must not run in parallel.
func useOracleBackends() (restore func()) {
	return assign.SetBackends(oracle.DecomposeParallelRef, oracle.GuptaSoffaMap)
}

// allocFingerprint flattens the determinism-relevant allocation fields into
// a comparable value. Copies is a map; it compares by DeepEqual. Phase
// timings are excluded (wall-clock noise), phase names and fallbacks are
// not.
type allocFingerprint struct {
	Copies      map[int]uint64
	Unassigned  []int
	Forced      []int
	SingleCopy  int
	MultiCopy   int
	TotalCopies int
	Atoms       int
	Degraded    bool
	Phases      []string
}

func fingerprint(p *Program) allocFingerprint {
	al := p.Alloc
	fp := allocFingerprint{
		Copies:      make(map[int]uint64, len(al.Copies)),
		Unassigned:  al.Unassigned,
		Forced:      al.Forced,
		SingleCopy:  al.SingleCopy,
		MultiCopy:   al.MultiCopy,
		TotalCopies: al.TotalCopies,
		Atoms:       al.Atoms,
		Degraded:    al.Degraded,
	}
	for v, s := range al.Copies {
		fp.Copies[v] = uint64(s)
	}
	for _, ph := range al.Phases {
		fp.Phases = append(fp.Phases, ph.Phase+"/"+ph.Method+"/"+ph.Fallback)
	}
	return fp
}

// moduleLoads derives the per-module copy counts — the quantity the paper's
// tables report — as an extra, order-insensitive cross-check.
func moduleLoads(p *Program, k int) []int {
	loads := make([]int, k)
	for _, s := range p.Alloc.Copies {
		for m := 0; m < k; m++ {
			if s.Has(m) {
				loads[m]++
			}
		}
	}
	return loads
}

// denseDiffConfigs is the option matrix the dense and reference backends
// must agree across: both duplication methods, all strategies, atoms on and
// off, and the sequential and parallel engines.
func denseDiffConfigs() []Options {
	return []Options{
		{Modules: 8},
		{Modules: 4},
		{Modules: 8, Method: Backtrack},
		{Modules: 8, Strategy: STOR2},
		{Modules: 8, Strategy: STOR3, Groups: 3},
		{Modules: 8, DisableAtoms: true},
		{Modules: 8, Workers: 4},
		{Modules: 8, Method: Backtrack, Workers: 4},
	}
}

func assertSameAllocation(t *testing.T, label string, opt Options, src string) {
	t.Helper()
	pd, err := Compile(src, opt)
	if err != nil {
		t.Fatalf("%s (%+v): dense compile: %v", label, opt, err)
	}
	restore := useOracleBackends()
	pr, err := Compile(src, opt)
	restore()
	if err != nil {
		t.Fatalf("%s (%+v): reference compile: %v", label, opt, err)
	}
	fd, fr := fingerprint(pd), fingerprint(pr)
	if !reflect.DeepEqual(fd, fr) {
		t.Fatalf("%s (%+v): dense and reference allocations diverged\ndense: %+v\nref:   %+v",
			label, opt, fd, fr)
	}
	k := opt.Modules
	if k == 0 {
		k = 8
	}
	if ld, lr := moduleLoads(pd, k), moduleLoads(pr, k); !reflect.DeepEqual(ld, lr) {
		t.Fatalf("%s (%+v): module loads diverged: dense %v, ref %v", label, opt, ld, lr)
	}
}

// TestDenseBackendBitIdenticalBenchmarks runs the full benchmark suite
// through every config with both backends.
func TestDenseBackendBitIdenticalBenchmarks(t *testing.T) {
	configs := denseDiffConfigs()
	if testing.Short() {
		configs = configs[:3]
	}
	for _, spec := range benchprog.All() {
		for _, opt := range configs {
			assertSameAllocation(t, spec.Name, opt, spec.Source)
		}
	}
}

// TestDenseBackendBitIdenticalFuzz does the same over random MPL programs.
func TestDenseBackendBitIdenticalFuzz(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 5
	}
	configs := denseDiffConfigs()
	for seed := int64(0); seed < int64(iters); seed++ {
		g := &progGen{r: rand.New(rand.NewSource(seed + 7000))}
		src := g.gen()
		opt := configs[int(seed)%len(configs)]
		assertSameAllocation(t, "fuzz", opt, src)
	}
}

// TestDenseBackendAssignValues covers the direct assignment entry point
// (no MPL front end) with adversarial operand sets.
func TestDenseBackendAssignValues(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 30; iter++ {
		k := 2 + r.Intn(7)
		var instrs []Instruction
		for i := 0; i < 5+r.Intn(25); i++ {
			n := 1 + r.Intn(k)
			in := make(Instruction, n)
			for j := range in {
				in[j] = r.Intn(30)
			}
			instrs = append(instrs, in)
		}
		for _, method := range []Method{HittingSet, Backtrack} {
			ad, err := AssignValues(nil, instrs, AssignConfig{K: k, Method: method})
			if err != nil {
				t.Fatalf("iter %d: dense assign: %v", iter, err)
			}
			restore := useOracleBackends()
			ar, err := AssignValues(nil, instrs, AssignConfig{K: k, Method: method})
			restore()
			if err != nil {
				t.Fatalf("iter %d: reference assign: %v", iter, err)
			}
			// Phase timings differ; compare everything else.
			ad.Phases, ar.Phases = nil, nil
			if !reflect.DeepEqual(ad, ar) {
				t.Fatalf("iter %d (k=%d %v): dense and reference allocations diverged\ndense: %+v\nref:   %+v",
					iter, k, method, ad, ar)
			}
		}
	}
}
