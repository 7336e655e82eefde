package duplication

import (
	"context"
	"math/rand"
	"reflect"
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

func freshMeter() *budget.Meter {
	return budget.NewMeter(context.Background(), -1, 0)
}

// TestParallelMatchesSequential proves the determinism contract: for both
// strategies, the parallel runner produces exactly the sequential result
// (copies, residual, new-copy count, fallback) on multi-component inputs.
func TestParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		in := randomInput(r, 1+r.Intn(5), 1+r.Intn(6), 4+r.Intn(6), 4+r.Intn(4))
		for method, m := range map[string]Method{"backtrack": MethodBacktrack, "hittingset": MethodHittingSet} {
			seq := in
			seq.Meter = freshMeter()
			par := in
			par.Meter = freshMeter()

			sres, sfb, serr := solve(seq, m, 1)
			pres, pfb, perr := solve(par, m, 4)
			if serr != nil || perr != nil {
				t.Fatalf("trial %d %s: errors %v / %v", trial, method, serr, perr)
			}
			if !reflect.DeepEqual(sres.Copies, pres.Copies) {
				t.Fatalf("trial %d %s: copies diverge\nseq: %v\npar: %v", trial, method, sres.Copies, pres.Copies)
			}
			if !reflect.DeepEqual(sres.Residual, pres.Residual) {
				t.Fatalf("trial %d %s: residual diverge: %v vs %v", trial, method, sres.Residual, pres.Residual)
			}
			if sres.NewCopies != pres.NewCopies || sfb != pfb {
				t.Fatalf("trial %d %s: NewCopies/Fallback diverge: %d/%q vs %d/%q",
					trial, method, sres.NewCopies, sfb, pres.NewCopies, pfb)
			}
		}
	}
}

// TestParallelSingleComponentFallsBack checks that one-component inputs
// take the sequential path and still agree.
func TestParallelSingleComponentFallsBack(t *testing.T) {
	in := Input{
		Instrs:     []conflict.Instruction{{1, 2, 3}, {2, 3, 4}, {1, 4}},
		Assigned:   map[int]int{1: 0, 2: 1},
		Unassigned: []int{3, 4},
		K:          4,
	}
	seq := in
	seq.Meter = freshMeter()
	par := in
	par.Meter = freshMeter()
	sres, err1 := hittingSet(seq)
	pres, _, err2 := solve(par, MethodHittingSet, 8)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(sres.Copies, pres.Copies) {
		t.Fatalf("copies diverge: %v vs %v", sres.Copies, pres.Copies)
	}
}

// TestParallelCancellation checks that a canceled context aborts the
// fan-out with an error wrapping budget.ErrCanceled.
func TestParallelCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := randomInput(r, 6, 8, 8, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in.Meter = budget.NewMeter(ctx, -1, 0)
	_, _, err := solve(in, MethodBacktrack, 4)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}

// TestPartitionCoversInput checks the partition invariants: every
// instruction lands in exactly one component, every unassigned value in
// exactly one, and the residue holds only values outside all instructions.
func TestPartitionCoversInput(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	in := randomInput(r, 4, 5, 6, 5)
	in.Meter = freshMeter()
	comps := partition(in)
	nInstr, nUn := 0, 0
	seenVal := map[int]bool{}
	for _, c := range comps {
		nInstr += len(c.in.Instrs)
		nUn += len(c.in.Unassigned)
		for _, v := range c.in.Unassigned {
			if seenVal[v] {
				t.Fatalf("value %d in two components", v)
			}
			seenVal[v] = true
		}
	}
	if nInstr != len(in.Instrs) {
		t.Fatalf("instructions dropped: %d of %d", nInstr, len(in.Instrs))
	}
	if nUn != len(in.Unassigned) {
		t.Fatalf("unassigned dropped: %d of %d", nUn, len(in.Unassigned))
	}
}
