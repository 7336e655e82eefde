package duplication_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parmem/internal/coloring"
	"parmem/internal/conflict"
	"parmem/internal/duplication"
	"parmem/internal/oracle"
)

// The differential and optimality tests against internal/oracle. They live
// in the external test package because oracle imports duplication.

// TestHasSDRMatchesRef fuzzes the allocation-free bipartite matcher against
// the original map-and-slice implementation.
func TestHasSDRMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for iter := 0; iter < 5000; iter++ {
		k := 1 + r.Intn(10)
		nvals := 1 + r.Intn(12)
		copies := make(duplication.Copies, nvals)
		values := make([]int, nvals)
		for i := range values {
			values[i] = i
			if r.Intn(4) > 0 { // some values stay wildcards
				var s duplication.ModSet
				for m := 0; m < k; m++ {
					if r.Intn(3) == 0 {
						s = s.Add(m)
					}
				}
				copies[i] = s
			}
		}
		if got, want := duplication.HasSDR(values, copies), oracle.HasSDRRef(values, copies); got != want {
			t.Fatalf("iter %d: HasSDR = %v, ref %v (copies %v)", iter, got, want, copies)
		}
	}
}

func TestExactMinCopiesFig8(t *testing.T) {
	// Fig. 8: the optimum is 3 copies of V4 (7 total), matching the
	// paper's solution 2.
	instrs := []conflict.Instruction{
		{1, 2, 3, 5}, {4, 2, 3, 5}, {1, 2, 3, 4}, {4, 2, 1, 5},
	}
	in := duplication.Input{
		Instrs:     instrs,
		Assigned:   map[int]int{1: 1, 2: 3, 3: 2, 5: 0},
		Unassigned: []int{4},
		K:          4,
	}
	res, err := oracle.ExactMinCopies(in)
	if err != nil {
		t.Fatal(err)
	}
	duplication.CheckAllFree(t, instrs, res)
	if res.Copies.TotalCopies() != 7 {
		t.Fatalf("optimal total copies = %d, want 7", res.Copies.TotalCopies())
	}
	if res.Copies[4].Count() != 3 {
		t.Fatalf("V4 copies = %d, want 3", res.Copies[4].Count())
	}
}

func TestExactNeverWorseThanHeuristicsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(3)
		instrs := duplication.RandomInstrs(r, 4+r.Intn(5), 3+r.Intn(8), k)
		g := conflict.Build(instrs)
		col := coloring.GuptaSoffa(g, coloring.Options{K: k})
		if len(col.Unassigned) > 4 {
			return true // keep the exact search tractable
		}
		in := duplication.Input{Instrs: instrs, Assigned: col.Assign, Unassigned: col.Unassigned, K: k}
		exact, err := oracle.ExactMinCopies(in)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(exact.Residual) != 0 {
			t.Logf("seed %d: exact left residual %v", seed, exact.Residual)
			return false
		}
		bt, err1 := duplication.SolveBacktrack(in)
		hs, err2 := duplication.SolveHittingSet(in)
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: %v %v", seed, err1, err2)
			return false
		}
		for _, h := range []duplication.Result{bt, hs} {
			if exact.Copies.TotalCopies() > h.Copies.TotalCopies() {
				t.Logf("seed %d: exact %d > heuristic %d", seed,
					exact.Copies.TotalCopies(), h.Copies.TotalCopies())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestExactInfeasibleReportsResidual(t *testing.T) {
	// Two fixed values pinned to the same module conflict regardless of
	// replication of others.
	in := duplication.Input{
		Instrs:   []conflict.Instruction{{1, 2}},
		Assigned: map[int]int{1: 0, 2: 0},
		K:        2,
	}
	res, err := oracle.ExactMinCopies(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Residual) != 1 {
		t.Fatalf("residual = %v, want [0]", res.Residual)
	}
}

func TestExactKeepsCarriedCopies(t *testing.T) {
	// Value 9 arrives with a copy in module 1; the exact search must keep
	// it (supersets only).
	in := duplication.Input{
		Instrs:     []conflict.Instruction{{1, 9}},
		Assigned:   map[int]int{1: 0},
		Unassigned: []int{9},
		Initial:    duplication.Copies{9: duplication.ModSet(0).Add(1)},
		K:          2,
	}
	res, err := oracle.ExactMinCopies(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Copies[9].Has(1) {
		t.Fatalf("carried copy dropped: %v", res.Copies[9].Modules())
	}
	duplication.CheckAllFree(t, in.Instrs, res)
}
