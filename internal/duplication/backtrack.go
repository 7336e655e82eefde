package duplication

import (
	"errors"
	"math/bits"
	"slices"

	"parmem/internal/arena"
	"parmem/internal/budget"
	"parmem/internal/conflict"
	"parmem/internal/faultinject"
)

// Input bundles what both duplication strategies consume: the instruction
// stream, the single-module assignment produced by coloring, the values the
// coloring removed (paper V_unassigned), and the module count.
type Input struct {
	Instrs     []conflict.Instruction
	Assigned   map[int]int // value -> module, fixed single copies
	Unassigned []int       // values eligible for replication
	// Initial carries allocations made by an earlier phase (STOR2 globals,
	// earlier STOR3 instruction groups). Those copies are kept; values
	// listed in Unassigned may gain further copies on top.
	Initial Copies
	K       int // number of memory modules
	// Meter charges the search against a node/time budget and polls for
	// cancellation; nil meters nothing. On budget exhaustion a strategy
	// degrades to a cheaper one (see Cores' fallback); on cancellation it
	// returns an error wrapping budget.ErrCanceled.
	Meter *budget.Meter
	// Scratch optionally supplies the arena a strategy core borrows its
	// working set from — the backtracking search passes its own to the
	// hitting-set fallback. The caller owns its lifecycle; nil draws a
	// Scratch from the global pool for the duration of the call.
	Scratch *arena.Scratch
}

// Result is the outcome of a duplication strategy.
type Result struct {
	// Copies maps every value (assigned and unassigned) to the modules
	// holding it.
	Copies Copies
	// Residual lists indices of instructions that remain conflicting.
	// This can only happen when the fixed assignments passed in already
	// clash (e.g. values bound in different STOR3 groups); the assign
	// driver repairs those before calling a strategy, so Residual is
	// normally empty.
	Residual []int
	// NewCopies is the number of copies created beyond the first copy of
	// each value — the quantity both strategies minimize.
	NewCopies int
}

// baseCopies builds the initial copy table: the carried-over allocations of
// earlier phases plus one fixed copy per newly assigned value. Unassigned
// values without prior storage start with none.
func baseCopies(in Input) Copies {
	c := in.Initial.Clone()
	if c == nil {
		c = make(Copies, len(in.Assigned)+len(in.Unassigned))
	}
	for v, m := range in.Assigned {
		c[v] = c[v].Add(m)
	}
	return c
}

// Finish is the global epilogue over a copy table produced by Cores (or
// stitched together from several Cores calls): it gives every unassigned
// value without storage one copy on the least-loaded module, scans for
// residual conflicts and counts the new copies. It must see the FULL input
// (every instruction and unassigned value), not a component slice —
// per-module load is a whole-program quantity. copies is completed in
// place.
func Finish(in Input, copies Copies) Result {
	sc := arena.Get()
	defer sc.Release()
	load := sc.Ints(in.K)
	for _, s := range copies {
		for t := s; t != 0; {
			m := bits.TrailingZeros64(uint64(t))
			load[m]++
			t = t.Remove(m)
		}
	}
	for _, v := range in.Unassigned {
		if copies[v] == 0 {
			best := 0
			for m := 1; m < in.K; m++ {
				if load[m] < load[best] {
					best = m
				}
			}
			copies[v] = ModSet(0).Add(best)
			load[best]++
		}
	}
	res := Result{Copies: copies}
	tbl := conflict.NormalizeTable(in.Instrs, sc)
	for i := 0; i < tbl.Len(); i++ {
		if !ConflictFree(tbl.Row(i), copies) {
			res.Residual = append(res.Residual, i)
		}
	}
	total := copies.TotalCopies()
	res.NewCopies = total - len(copies) // beyond one copy per stored value
	return res
}

// backtrackCore is the straightforward approach of paper Fig. 6, without
// the global epilogue (see Finish).
//
// Instructions are ordered by how many of their operands are replicable
// (members of V_unassigned), fewest first: an instruction with a single
// replicable operand usually has only one way to become conflict-free, so
// deciding it early avoids wasted copies. For each instruction an
// exhaustive backtracking search over module placements of its replicable
// operands finds the placement needing the fewest new copies; existing
// copies are reused whenever possible. Ties are broken deterministically in
// favor of the lexicographically first placement (the paper makes a random
// choice).
//
// The search charges one budget node per recursive placement step against
// in.Meter. When the budget runs out mid-stream the search stops cleanly
// and the remaining placements degrade to hittingCore (polynomial),
// keeping every copy placed so far; the fallback is then "hittingset".
// Cancellation aborts with an error wrapping budget.ErrCanceled.
func backtrackCore(in Input) (Copies, string, error) {
	faultinject.Check("duplication.backtrack")
	sc := in.Scratch
	if sc == nil {
		sc = arena.Get()
		defer sc.Release()
	}
	tbl := conflict.NormalizeTable(in.Instrs, sc)
	copies := baseCopies(in)
	repl := sc.IntBoolMap(len(in.Unassigned))
	for _, v := range in.Unassigned {
		repl[v] = true
	}

	// Work items are (nrep, arrival) keys packed into uint64s, so a plain
	// sort is the stable fewest-replicable-operands-first order; workIdx
	// maps arrival position back to the instruction's table row.
	workIdx := sc.Ints(tbl.Len())[:0]
	keys := sc.Uint64s(tbl.Len())[:0]
	for i := 0; i < tbl.Len(); i++ {
		nrep := 0
		for _, v := range tbl.Row(i) {
			if repl[v] {
				nrep++
			}
		}
		if nrep > 0 {
			keys = append(keys, uint64(nrep)<<32|uint64(len(workIdx)))
			workIdx = append(workIdx, i)
		}
	}
	slices.Sort(keys)

	var pb placeBufs
	for _, key := range keys {
		ops := tbl.Row(workIdx[uint32(key)])
		if _, err := placeInstruction(ops, copies, repl, in.K, in.Meter, &pb); err != nil {
			if errors.Is(err, budget.ErrCanceled) {
				return nil, "", err
			}
			// Budget exhausted: degrade. Everything placed so far is kept
			// (it rides in via Initial); the hitting-set approach decides
			// the rest. The fallback ignores the spent budget but still
			// honors cancellation.
			fb := Input{
				Instrs:     in.Instrs,
				Unassigned: in.Unassigned,
				Initial:    copies,
				K:          in.K,
				Meter:      in.Meter.CancelOnly(),
				Scratch:    sc,
			}
			c, _, err := hittingCore(fb)
			if err != nil {
				return nil, "", err
			}
			return c, "hittingset", nil
		}
	}
	return copies, "", nil
}

// placeBufs is the reusable working set of placeInstruction, hoisted into
// backtrackCore so the per-instruction search costs no pool round-trip and
// no allocation at all in steady state (the previous version drew a whole
// Scratch per instruction — the hottest Get/Release pair of the engine).
type placeBufs struct {
	fixedVals, freeVals []int
	bestChoice, choice  []int
}

// grow returns buf with length exactly n, reusing its capacity. Contents
// are unspecified; placeInstruction overwrites every entry before reading.
func (pb *placeBufs) grow(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// placeInstruction finds the cheapest conflict-free module choice for the
// replicable operands of one instruction and records any new copies.
// It returns false when no conflict-free placement exists (the fixed
// operands already clash). A non-nil error means the meter cut the search
// short (budget exhausted or canceled); no copies are recorded then.
func placeInstruction(ops []int, copies Copies, repl map[int]bool, k int, meter *budget.Meter, pb *placeBufs) (bool, error) {
	fixedVals := pb.grow(pb.fixedVals, len(ops))[:0]
	freeVals := pb.grow(pb.freeVals, len(ops))[:0]
	for _, v := range ops {
		if repl[v] {
			freeVals = append(freeVals, v)
		} else {
			fixedVals = append(fixedVals, v)
		}
	}
	// Modules claimed by the fixed operands. Coloring makes them pairwise
	// distinct; if an upstream phase broke that, no placement can help.
	taken := ModSet(0)
	for _, v := range fixedVals {
		s := copies[v]
		if s.Count() != 1 {
			// A fixed operand with several copies (already replicated by an
			// earlier instruction group) participates in the SDR instead.
			continue
		}
		m := s.Modules()[0]
		if taken.Has(m) {
			return false, nil
		}
		taken = taken.Add(m)
	}
	// Fixed multi-copy operands: let the final SDR check handle them; for
	// the search we conservatively only reserve single-copy modules.

	bestCost := k + 1
	found := false
	bestChoice := pb.grow(pb.bestChoice, len(freeVals))
	choice := pb.grow(pb.choice, len(freeVals))
	// Retain the (possibly re-grown) capacity for the next instruction.
	pb.fixedVals, pb.freeVals = fixedVals, freeVals
	pb.bestChoice, pb.choice = bestChoice, choice

	var searchErr error
	var rec func(i int, used ModSet, cost int)
	rec = func(i int, used ModSet, cost int) {
		if searchErr != nil {
			return
		}
		if err := meter.Spend(1); err != nil {
			searchErr = err
			return
		}
		if cost >= bestCost {
			return
		}
		if i == len(freeVals) {
			// Validate with the full SDR including multi-copy fixed values.
			if conflictFreeWith(ops, copies, freeVals, choice) {
				bestCost = cost
				found = true
				copy(bestChoice, choice)
			}
			return
		}
		v := freeVals[i]
		// Reuse existing copies first (cost 0), then new modules.
		for pass := 0; pass < 2; pass++ {
			for m := 0; m < k; m++ {
				if used.Has(m) {
					continue
				}
				exists := copies[v].Has(m)
				if (pass == 0) != exists {
					continue
				}
				extra := 0
				if !exists {
					extra = 1
				}
				choice[i] = m
				rec(i+1, used.Add(m), cost+extra)
			}
		}
	}
	rec(0, taken, 0)

	if searchErr != nil {
		return false, searchErr
	}
	if !found {
		return false, nil
	}
	for j, v := range freeVals {
		copies[v] = copies[v].Add(bestChoice[j])
	}
	return true, nil
}

// conflictFreeWith is ConflictFree(ops, copies) with a trial placement
// applied virtually: freeVals[j] gains module choice[j] for the duration of
// the check, without cloning the copy table. It is the leaf test of the
// backtracking search, hit once per candidate placement — the clone it
// replaces dominated the allocation profile of the whole strategy.
func conflictFreeWith(ops []int, copies Copies, freeVals, choice []int) bool {
	var arr [64]ModSet
	sets := arr[:0]
	for _, v := range ops {
		s := copies[v]
		for j, f := range freeVals {
			if f == v {
				s = s.Add(choice[j])
			}
		}
		if s != 0 {
			if len(sets) == cap(sets) {
				return false // pigeonhole, as in HasSDR
			}
			sets = append(sets, s)
		}
	}
	return matchAll(sets)
}
