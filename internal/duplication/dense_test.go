package duplication

import (
	"math/rand"
	"testing"
)

// TestConflictFreeWithMatchesClone checks the virtual-placement SDR test
// against the clone-and-check formulation it replaced in the backtracking
// leaf.
func TestConflictFreeWithMatchesClone(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 3000; iter++ {
		k := 2 + r.Intn(6)
		nops := 1 + r.Intn(6)
		ops := make([]int, nops)
		copies := make(Copies, nops)
		for i := range ops {
			ops[i] = i
			if r.Intn(3) > 0 {
				var s ModSet
				for m := 0; m < k; m++ {
					if r.Intn(3) == 0 {
						s = s.Add(m)
					}
				}
				copies[i] = s
			}
		}
		var freeVals, choice []int
		for _, v := range ops {
			if r.Intn(2) == 0 {
				freeVals = append(freeVals, v)
				choice = append(choice, r.Intn(k))
			}
		}
		trial := copies.Clone()
		for j, v := range freeVals {
			trial[v] = trial[v].Add(choice[j])
		}
		want := ConflictFree(ops, trial)
		if got := conflictFreeWith(ops, copies, freeVals, choice); got != want {
			t.Fatalf("iter %d: conflictFreeWith = %v, want %v (ops %v copies %v free %v choice %v)",
				iter, got, want, ops, copies, freeVals, choice)
		}
	}
}

// benchSDRInputs builds a workload shaped like the backtracking search's
// leaf checks: many SDR feasibility probes over instruction-sized operand
// sets.
func benchSDRInputs() ([][]int, Copies) {
	r := rand.New(rand.NewSource(32))
	const k = 8
	copies := make(Copies, 256)
	for v := 0; v < 256; v++ {
		var s ModSet
		for m := 0; m < k; m++ {
			if r.Intn(4) == 0 {
				s = s.Add(m)
			}
		}
		if s == 0 {
			s = s.Add(r.Intn(k))
		}
		copies[v] = s
	}
	sets := make([][]int, 512)
	for i := range sets {
		ops := make([]int, k)
		for j := range ops {
			ops[j] = r.Intn(256)
		}
		sets[i] = ops
	}
	return sets, copies
}

func BenchmarkDuplicationDense(b *testing.B) {
	sets, copies := benchSDRInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ops := range sets {
			HasSDR(ops, copies)
		}
	}
}
