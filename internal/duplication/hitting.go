package duplication

import (
	"errors"
	"sort"

	"parmem/internal/arena"
	"parmem/internal/budget"
	"parmem/internal/conflict"
	"parmem/internal/faultinject"
)

// HittingSet implements the greedy heuristic of paper Fig. 9.
//
// Given candidate sets (each listing the values whose duplication would
// resolve one conflicting operand combination), it returns a set of values
// hitting every candidate set. All singleton sets are taken outright; then
// sets are processed by increasing size, and from each not-yet-hit set the
// element occurring in the most sets is chosen, comparing occurrence counts
// lexicographically from the current size upward (S_{v,size}, S_{v,size+1},
// ...), with ties broken toward the smaller value id. The approximation
// ratio is the harmonic bound H_m stated in the paper.
func HittingSet(sets [][]int) []int {
	if len(sets) == 0 {
		return nil
	}
	maxSize := 0
	for _, s := range sets {
		if len(s) > maxSize {
			maxSize = len(s)
		}
	}
	// occ[v][p] = number of sets of size p containing v.
	occ := map[int][]int{}
	for _, s := range sets {
		for _, v := range s {
			if occ[v] == nil {
				occ[v] = make([]int, maxSize+1)
			}
			occ[v][len(s)]++
		}
	}

	hs := map[int]bool{}
	for _, s := range sets {
		if len(s) == 1 {
			hs[s[0]] = true
		}
	}

	// Deterministic processing order: by size, then lexicographic content.
	ordered := make([][]int, len(sets))
	copy(ordered, sets)
	sort.SliceStable(ordered, func(i, j int) bool {
		if len(ordered[i]) != len(ordered[j]) {
			return len(ordered[i]) < len(ordered[j])
		}
		for x := range ordered[i] {
			if ordered[i][x] != ordered[j][x] {
				return ordered[i][x] < ordered[j][x]
			}
		}
		return false
	})

	for size := 2; size <= maxSize; size++ {
		for _, s := range ordered {
			if len(s) != size {
				continue
			}
			hit := false
			for _, v := range s {
				if hs[v] {
					hit = true
					break
				}
			}
			if hit {
				continue
			}
			// Choose the element with the lexicographically largest
			// occurrence vector (S_{v,size}, ..., S_{v,maxSize}).
			best := -1
			for _, v := range s {
				if best == -1 || occLess(occ[best], occ[v], size, maxSize) ||
					(!occLess(occ[v], occ[best], size, maxSize) && v < best) {
					best = v
				}
			}
			hs[best] = true
		}
	}

	out := make([]int, 0, len(hs))
	for v := range hs {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// occLess reports whether a's occurrence vector is lexicographically smaller
// than b's over sizes [from, to].
func occLess(a, b []int, from, to int) bool {
	for p := from; p <= to; p++ {
		av, bv := 0, 0
		if a != nil && p < len(a) {
			av = a[p]
		}
		if b != nil && p < len(b) {
			bv = b[p]
		}
		if av != bv {
			return av < bv
		}
	}
	return false
}

// Place implements the placement algorithm of paper Fig. 10: place one new
// copy of each value in hs so that as many conflicting instructions as
// possible become conflict-free.
//
// Instructions are grouped by how many of their operands are replicable
// (I_y = instructions with y operands in V_unassigned): an instruction with
// a single replicable operand has the least placement freedom, so group I_1
// dominates every comparison. Values are placed one at a time, most
// constrained first; each value goes to the module whose vector of
// "conflicts newly avoided per group" is lexicographically largest. The
// choice is deterministic (smallest module index on ties; the paper makes a
// random choice).
func Place(instrs []conflict.Instruction, copies Copies, hs []int, repl map[int]bool, k int) {
	sc := arena.Get()
	defer sc.Release()
	placeTable(conflict.NormalizeTable(instrs, sc), copies, hs, repl, k, sc)
}

// placeTable is Place over a pre-normalized operand table, with every
// placement buffer (grouping, conflict flags, occurrence vectors, trial
// vectors) borrowed from sc. It mutates copies in place and allocates
// nothing that outlives the call.
func placeTable(t conflict.OpsTable, copies Copies, hs []int, repl map[int]bool, k int, sc *arena.Scratch) {
	// gisIdx lists the instructions with at least one replicable operand
	// (table row indices); gisGrp is the parallel group number 1..k.
	gisIdx := sc.Ints(t.Len())[:0]
	gisGrp := sc.Ints(t.Len())[:0]
	for i := 0; i < t.Len(); i++ {
		y := 0
		for _, v := range t.Row(i) {
			if repl[v] {
				y++
			}
		}
		if y >= 1 {
			gisIdx = append(gisIdx, i)
			gisGrp = append(gisGrp, y)
		}
	}

	// conflicting instructions that involve v, counted per group. copies is
	// constant until placement starts, so the free/conflicting status of
	// each instruction is computed once, and each value's vector once —
	// not per comparator call of the sort below.
	confl := sc.Bools(len(gisIdx))
	for j, i := range gisIdx {
		confl[j] = !ConflictFree(t.Row(i), copies)
	}
	// vecs holds one (k+1)-wide occurrence vector per hs entry, flat.
	vecs := sc.Ints(len(hs) * (k + 1))
	for vi, v := range hs {
		vec := vecs[vi*(k+1) : (vi+1)*(k+1)]
		for j, i := range gisIdx {
			if !confl[j] {
				continue
			}
			for _, o := range t.Row(i) {
				if o == v {
					vec[gisGrp[j]]++
					break
				}
			}
		}
	}

	// Order the values: the one involved in the most group-1 conflicts
	// first, comparing group vectors lexicographically. order permutes hs
	// positions; ties fall back to the smaller value id, and stable sorting
	// from hs order keeps the historical ordering on full ties.
	order := sc.Ints(len(hs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va := vecs[order[a]*(k+1) : order[a]*(k+1)+k+1]
		vb := vecs[order[b]*(k+1) : order[b]*(k+1)+k+1]
		for y := 1; y <= k; y++ {
			if va[y] != vb[y] {
				return va[y] > vb[y]
			}
		}
		return hs[order[a]] < hs[order[b]]
	})

	involved := sc.Ints(len(gisIdx))[:0]
	vec := sc.Ints(k + 1)
	bestVec := sc.Ints(k + 1)
	for _, oi := range order {
		v := hs[oi]
		if copies[v].Count() >= k {
			continue // already everywhere; nothing to place
		}
		// Instructions that involve v. Because adding a copy can only
		// enlarge a value's module set, an instruction that is free stays
		// free, so maximizing "free after the trial placement" equals
		// maximizing C_{M_x,I_y}(v) = "became free" — and it additionally
		// steers the *first* copy of a value (whose placement narrows the
		// value from a wildcard to one module) away from modules that
		// would create new conflicts.
		involved = involved[:0]
		for j, i := range gisIdx {
			for _, o := range t.Row(i) {
				if o == v {
					involved = append(involved, j)
					break
				}
			}
		}
		old := copies[v]
		bestM := -1
		for m := 0; m < k; m++ {
			if old.Has(m) {
				continue
			}
			clear(vec)
			copies[v] = old.Add(m)
			for _, j := range involved {
				if ConflictFree(t.Row(gisIdx[j]), copies) {
					vec[gisGrp[j]]++
				}
			}
			copies[v] = old
			if bestM == -1 || vecGreater(vec, bestVec, k) {
				bestM = m
				copy(bestVec, vec)
			}
		}
		if bestM >= 0 {
			copies[v] = old.Add(bestM)
		}
	}
}

// vecGreater reports a > b lexicographically over groups 1..k.
func vecGreater(a, b []int, k int) bool {
	for y := 1; y <= k; y++ {
		if a[y] != b[y] {
			return a[y] > b[y]
		}
	}
	return false
}

// hittingCore is the overall strategy of paper Fig. 7, without the
// global epilogue (see Finish).
//
// First one copy of every replicable value is placed (greedy placement),
// then a second copy of each, which makes every operand *pair* conflict-free
// by construction. Then, for combination sizes 3..k, the operand
// combinations that still conflict are collected; each contributes the
// candidate set of its replicable members, a hitting set of those candidate
// sets is duplicated, and the new copies are placed. Sizes are re-examined
// until clean, which terminates because each round adds at least one copy
// and a value held by all k modules can never conflict.
//
// Work is charged against in.Meter in the same node currency as the
// backtracking search (roughly one node per instruction examined or
// combination enumerated). On budget exhaustion the approach degrades to
// full replication: every replicable operand of a still-conflicting
// instruction, and every replicable operand still without storage, receives
// a copy in every module, which is conflict-free by construction wherever
// replicable values are involved; the fallback is
// then "fullreplication". Cancellation aborts with an error wrapping
// budget.ErrCanceled.
func hittingCore(in Input) (Copies, string, error) {
	faultinject.Check("duplication.hittingset")
	// One arena scope covers the whole strategy: the normalized operand
	// table, the replicable set and every Place/Combinations buffer. The
	// copy table escapes into the Result and stays freshly allocated.
	// backtrackCore's fallback passes its own Scratch via in.Scratch.
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

	// degrade resolves every remaining conflict by brute replication. A
	// replicable operand without storage gets a full copy set too:
	// ConflictFree treats it as a wildcard, but Finish would pin it to one
	// least-loaded module, which can clash. A single forward pass
	// suffices: ConflictFree is monotone in the copy sets, so enlarging
	// copies for a later instruction never breaks an earlier one.
	degrade := func() (Copies, string, error) {
		full := Full(in.K)
		for i := 0; i < tbl.Len(); i++ {
			ops := tbl.Row(i)
			conflicting := !ConflictFree(ops, copies)
			for _, v := range ops {
				if repl[v] && (conflicting || copies[v] == 0) {
					copies[v] = full
				}
			}
		}
		return copies, "fullreplication", nil
	}
	// charge bills n nodes; the returned action distinguishes "keep going",
	// "degrade" and "abort with err".
	charge := func(n int) (degraded bool, err error) {
		serr := in.Meter.Spend(int64(n))
		if serr == nil {
			return false, nil
		}
		if errors.Is(serr, budget.ErrCanceled) {
			return false, serr
		}
		return true, nil
	}

	// First and second copies of every replicable value (paper: the two
	// initial Place(V_unassigned) calls). Values carried over from an
	// earlier phase may already have storage; only top each value up to
	// two copies, which is what makes every operand *pair* conflict-free.
	for round := 0; round < 2; round++ {
		var todo []int
		for _, v := range in.Unassigned {
			if copies[v].Count() <= round {
				todo = append(todo, v)
			}
		}
		if deg, err := charge(len(todo) * len(in.Instrs)); err != nil {
			return nil, "", err
		} else if deg {
			return degrade()
		}
		placeTable(tbl, copies, todo, repl, in.K, sc)
	}

	for num := 3; num <= in.K; num++ {
		for round := 0; ; round++ {
			combs := conflict.CombinationsTable(tbl, num, sc)
			if deg, err := charge(len(combs)); err != nil {
				return nil, "", err
			} else if deg {
				return degrade()
			}
			var candSets [][]int
			for _, comb := range combs {
				if ConflictFree(comb, copies) {
					continue
				}
				var cand []int
				for _, v := range comb {
					if repl[v] && copies[v].Count() < in.K {
						cand = append(cand, v)
					}
				}
				if len(cand) > 0 {
					candSets = append(candSets, cand)
				}
			}
			if len(candSets) == 0 {
				break
			}
			hs := HittingSet(candSets)
			if deg, err := charge(len(hs) * len(in.Instrs)); err != nil {
				return nil, "", err
			} else if deg {
				return degrade()
			}
			before := copies.TotalCopies()
			placeTable(tbl, copies, hs, repl, in.K, sc)
			if copies.TotalCopies() == before {
				// No progress is possible (every candidate already has a
				// copy in all modules); the remaining conflicts involve
				// fixed values and surface as Residual.
				break
			}
			if round > in.K*len(in.Unassigned)+1 {
				break // safety valve; cannot trigger with progressing rounds
			}
		}
	}
	return copies, "", nil
}
