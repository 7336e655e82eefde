package duplication

import (
	"context"
	"math/rand"
	"testing"

	"parmem/internal/budget"
	"parmem/internal/conflict"
)

// randomInput builds a multi-component duplication problem: nc disjoint
// clusters of instructions over separate value ranges, plus a few isolated
// unassigned values that appear in no instruction.
func randomInput(r *rand.Rand, nc, instrsPer, valsPer, k int) Input {
	var in Input
	in.K = k
	in.Assigned = map[int]int{}
	base := 0
	for c := 0; c < nc; c++ {
		for i := 0; i < instrsPer; i++ {
			n := 2 + r.Intn(k-1)
			instr := make(conflict.Instruction, n)
			for j := range instr {
				instr[j] = base + r.Intn(valsPer)
			}
			in.Instrs = append(in.Instrs, instr)
		}
		base += valsPer
	}
	seen := map[int]bool{}
	for _, instr := range in.Instrs {
		for _, v := range instr.Normalize() {
			seen[v] = true
		}
	}
	for v := range seen {
		if r.Intn(3) == 0 {
			in.Unassigned = append(in.Unassigned, v)
		} else {
			in.Assigned[v] = r.Intn(k)
		}
	}
	// Isolated values: unassigned but in no instruction of this phase.
	for j := 0; j < 3; j++ {
		in.Unassigned = append(in.Unassigned, base+j)
	}
	normalizeUnassigned(&in)
	return in
}

func normalizeUnassigned(in *Input) {
	set := map[int]bool{}
	for _, v := range in.Unassigned {
		set[v] = true
	}
	in.Unassigned = in.Unassigned[:0]
	for v := range set {
		in.Unassigned = append(in.Unassigned, v)
	}
	sortInts(in.Unassigned)
	for _, v := range in.Unassigned {
		delete(in.Assigned, v)
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestParallelCancellation checks that a canceled context aborts Cores on a
// multi-component input with an error.
func TestParallelCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := randomInput(r, 6, 8, 8, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in.Meter = budget.NewMeter(ctx, -1, 0)
	_, _, err := solve(in, MethodBacktrack)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}

// TestHittingSetDegradeStoresEveryOperand runs the hitting-set core out of
// budget before its first placement. The full-replication fallback must
// also cover replicable operands without storage: Finish would otherwise
// pin value 2 to the least-loaded module 0, where value 1 already sits.
func TestHittingSetDegradeStoresEveryOperand(t *testing.T) {
	in := Input{
		Instrs:     []conflict.Instruction{{1, 2}, {3}, {4}},
		Assigned:   map[int]int{1: 0, 3: 1, 4: 1},
		Unassigned: []int{2},
		K:          2,
		Meter:      budget.NewMeter(context.Background(), 1, 0),
	}
	res, fb, err := solve(in, MethodHittingSet)
	if err != nil {
		t.Fatal(err)
	}
	if fb != "fullreplication" || len(res.Residual) != 0 {
		t.Fatalf("fallback %q, residual %v; want fullreplication and none", fb, res.Residual)
	}
}
