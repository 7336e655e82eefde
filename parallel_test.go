package parmem

// Tests for the parallel assignment engine: determinism (parallel output
// must be bit-identical to sequential), concurrent use of the public API
// against shared state (run these under -race: `make race` / `make check`),
// and the recoverPhase pass-through of already-typed internal errors.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// stripVolatile drops the fields that legitimately differ between runs
// (per-phase timings, node counts and cache flags); everything else must
// be bit-identical no matter how many workers ran.
func stripVolatile(al Allocation) Allocation {
	al.Phases = nil
	return al
}

// TestParallelAssignDeterminism feeds the same instruction lists through
// the sequential engine and through worker pools of several sizes; every
// allocation must be identical, for both duplication methods.
func TestParallelAssignDeterminism(t *testing.T) {
	inputs := map[string][]Instruction{
		"clusters": engineStressInstrs(8, 12, 5),
		"clique":   cliqueInstrs(14, 6),
		"figure3":  {{1, 2, 3}, {2, 3, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 5}, {1, 4, 5}},
	}
	for name, instrs := range inputs {
		for _, method := range []Method{HittingSet, Backtrack} {
			cfg := AssignConfig{K: 6, Method: method, Budget: Budget{MaxBacktrackNodes: -1}, Workers: 1}
			seq, err := AssignValues(context.Background(), instrs, cfg)
			if err != nil {
				t.Fatalf("%s/%v: sequential: %v", name, method, err)
			}
			if seq.Degraded {
				t.Fatalf("%s/%v: degraded under an unlimited budget", name, method)
			}
			for _, workers := range []int{0, 2, 3, 8} {
				cfg.Workers = workers
				par, err := AssignValues(context.Background(), instrs, cfg)
				if err != nil {
					t.Fatalf("%s/%v/workers=%d: %v", name, method, workers, err)
				}
				if !reflect.DeepEqual(stripVolatile(seq), stripVolatile(par)) {
					t.Errorf("%s/%v/workers=%d: allocation differs from sequential\nseq: %+v\npar: %+v",
						name, method, workers, stripVolatile(seq), stripVolatile(par))
				}
			}
		}
	}
}

// TestParallelCompileDeterminism compiles fuzz-corpus programs with the
// sequential and the parallel engine and compares the allocations — the
// whole-pipeline version of the determinism contract.
func TestParallelCompileDeterminism(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		g := &progGen{r: rand.New(rand.NewSource(seed))}
		src := g.gen()
		for _, opt := range []Options{
			{Modules: 8},
			{Modules: 8, Method: Backtrack, Unroll: 4},
			{Modules: 4, Strategy: STOR2},
			{Modules: 4, Strategy: STOR3},
			{Modules: 4, Strategy: PerRegion},
		} {
			opt.Workers = 1
			ps, err := Compile(src, opt)
			if err != nil {
				t.Fatalf("seed %d: sequential compile: %v", seed, err)
			}
			opt.Workers = 4
			pp, err := Compile(src, opt)
			if err != nil {
				t.Fatalf("seed %d: parallel compile: %v", seed, err)
			}
			if !reflect.DeepEqual(stripVolatile(ps.Alloc), stripVolatile(pp.Alloc)) {
				t.Errorf("seed %d (%+v): parallel allocation differs from sequential", seed, opt)
			}
		}
	}
}

// TestConcurrentAssignSharedCache hammers AssignValues from many
// goroutines sharing one allocation cache (and, within each call, one
// budget meter across that call's worker pool). Run under -race this
// checks the engine's synchronization; functionally every goroutine must
// see the same allocation whether it hit or missed the cache.
func TestConcurrentAssignSharedCache(t *testing.T) {
	instrs := engineStressInstrs(6, 10, 5)
	store := memStore(t)
	cfg := AssignConfig{K: 6, Method: Backtrack, Store: store}
	want, err := AssignValues(context.Background(), instrs, AssignConfig{K: 6, Method: Backtrack, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	results := make([]Allocation, goroutines)
	errs := make([]error, goroutines)
	done := make(chan int)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer func() { done <- i }()
			results[i], errs[i] = AssignValues(context.Background(), instrs, cfg)
		}(i)
	}
	for i := 0; i < goroutines; i++ {
		<-done
	}
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		got := stripVolatile(results[i])
		got.Atoms = want.Atoms // whole-assign cache hits skip recounting atoms
		if !reflect.DeepEqual(stripVolatile(want), got) {
			t.Errorf("goroutine %d: allocation differs from sequential baseline", i)
		}
	}
	if st := store.Stats(); st.Hits+st.Misses == 0 {
		t.Error("shared cache was never consulted")
	}
}

// TestConcurrentCompileSharedCache compiles the same program from many
// goroutines sharing one cache — the compile-level analogue of the test
// above and the usage pattern of a build server.
func TestConcurrentCompileSharedCache(t *testing.T) {
	src, err := BenchmarkSource("SORT")
	if err != nil {
		t.Fatal(err)
	}
	store := memStore(t)
	base, err := Compile(src, Options{Modules: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 6
	done := make(chan error)
	for i := 0; i < goroutines; i++ {
		go func() {
			p, err := CompileCtx(context.Background(), src, Options{Modules: 8, Store: store})
			if err == nil && !reflect.DeepEqual(base.Alloc.Copies, p.Alloc.Copies) {
				err = errors.New("allocation differs from the sequential baseline")
			}
			done <- err
		}()
	}
	for i := 0; i < goroutines; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestRecoverPhasePassthrough checks that recoverPhase hands an
// already-typed *InternalError through unchanged instead of wrapping it a
// second time: the inner boundary's Phase is the one naming the real
// failure point.
func TestRecoverPhasePassthrough(t *testing.T) {
	inner := &InternalError{Phase: "assign/stor1", Value: "invariant broken"}
	f := func() (err error) {
		defer recoverPhase("outer", &err)
		panic(inner)
	}
	err := f()
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("got %T, want *InternalError", err)
	}
	if ie != inner {
		t.Errorf("recoverPhase re-wrapped the error: Phase=%q, want the inner error unchanged", ie.Phase)
	}

	g := func() (err error) {
		defer recoverPhase("outer", &err)
		panic("raw panic")
	}
	err = g()
	if !errors.As(err, &ie) || ie.Phase != "outer" {
		t.Errorf("raw panic: got %v, want *InternalError with Phase %q", err, "outer")
	}
}

// TestParallelBudgetExhaustion pins that Workers never changes a result,
// not even when the search budget runs out mid-run: the decomposition is
// the only stage that fans out and it charges no budget, so the meter sees
// the same charges in the same order at every worker count. The input's
// three 78-value components are past atoms.ParallelMinNodes, so the
// decomposition really fans out; a one-node budget degrades both methods.
func TestParallelBudgetExhaustion(t *testing.T) {
	instrs := engineStressInstrs(3, 78, 5)
	for _, method := range []Method{HittingSet, Backtrack} {
		var want Allocation
		for _, workers := range []int{1, 2, 8} {
			cfg := AssignConfig{K: 5, Method: method, Budget: Budget{MaxBacktrackNodes: 1}, Workers: workers}
			al, err := AssignValues(context.Background(), instrs, cfg)
			if err != nil {
				t.Fatalf("%v/workers=%d: %v", method, workers, err)
			}
			if !al.Degraded {
				t.Fatalf("%v/workers=%d: a one-node budget did not degrade the run", method, workers)
			}
			for i := range al.Phases {
				al.Phases[i].Elapsed = 0 // wall-clock time, the one volatile field
			}
			if workers == 1 {
				want = al
				continue
			}
			if !reflect.DeepEqual(want, al) {
				t.Errorf("%v/workers=%d: allocation differs from workers=1\nwant: %+v\ngot:  %+v", method, workers, want.Phases, al.Phases)
			}
		}
	}
}
