package oracle

import (
	"errors"
	"fmt"
	"sort"

	"parmem/internal/budget"
	"parmem/internal/duplication"
)

// HasSDRRef is the map-and-slice implementation of duplication.HasSDR:
// whether the values with storage can each be fetched from a distinct
// module (a system of distinct representatives, by augmenting paths).
func HasSDRRef(values []int, copies duplication.Copies) bool {
	sets := make([]duplication.ModSet, 0, len(values))
	for _, v := range values {
		if s := copies[v]; s != 0 {
			sets = append(sets, s)
		}
	}
	matchedBy := make(map[int]int) // module -> set index
	var try func(i int, visited *duplication.ModSet) bool
	try = func(i int, visited *duplication.ModSet) bool {
		for _, m := range sets[i].Modules() {
			if visited.Has(m) {
				continue
			}
			*visited = visited.Add(m)
			holder, taken := matchedBy[m]
			if !taken || try(holder, visited) {
				matchedBy[m] = i
				return true
			}
		}
		return false
	}
	for i := range sets {
		visited := duplication.ModSet(0)
		if !try(i, &visited) {
			return false
		}
	}
	return true
}

// ExactMinCopies finds, by branch and bound, a placement of the replicable
// values that minimizes the total number of stored copies while making
// every instruction conflict-free. It is exponential in the number of
// replicable values (each can occupy any non-empty subset of the k modules)
// and exists to measure the heuristics' optimality gap on small instances —
// the paper's Fig. 3 and Fig. 8 discussions are exactly about those gaps.
//
// The search charges one budget node per branch step against in.Meter. On
// budget exhaustion it returns the best placement found so far (still
// verified conflict-free) — or the full-replication fallback when none was
// found — together with an error wrapping the meter's: the copy count is
// then an upper bound, not a proven minimum. Cancellation aborts with an
// error wrapping budget.ErrCanceled and no result.
//
// The result has Residual set when even full replication cannot fix an
// instruction (clashing fixed values).
func ExactMinCopies(in duplication.Input) (duplication.Result, error) {
	base := in.Initial.Clone()
	for v, m := range in.Assigned {
		base[v] = base[v].Add(m)
	}
	repl := in.Unassigned

	// Deduplicate instruction operand sets and keep only those involving a
	// replicable value (others are fixed and unaffected by the search).
	replSet := make(map[int]bool, len(repl))
	for _, v := range repl {
		replSet[v] = true
	}
	var relevant [][]int
	for _, instr := range in.Instrs {
		ops := instr.Normalize()
		hasRepl := false
		for _, v := range ops {
			if replSet[v] {
				hasRepl = true
				break
			}
		}
		if hasRepl {
			relevant = append(relevant, ops)
		}
	}

	full := duplication.Full(in.K)
	// Candidate module sets per value, cheapest (fewest copies) first.
	var candidates []duplication.ModSet
	for s := duplication.ModSet(1); s <= full; s++ {
		candidates = append(candidates, s)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Count() != candidates[j].Count() {
			return candidates[i].Count() < candidates[j].Count()
		}
		return candidates[i] < candidates[j]
	})

	bestCost := 1 << 30
	var best duplication.Copies

	var searchErr error
	var rec func(idx, cost int, cur duplication.Copies)
	rec = func(idx, cost int, cur duplication.Copies) {
		if searchErr != nil {
			return
		}
		if err := in.Meter.Spend(1); err != nil {
			searchErr = err
			return
		}
		if cost >= bestCost {
			return
		}
		if idx == len(repl) {
			for _, ops := range relevant {
				if !duplication.ConflictFree(ops, cur) {
					return
				}
			}
			bestCost = cost
			best = cur.Clone()
			return
		}
		v := repl[idx]
		for _, s := range candidates {
			if s&base[v] != base[v] {
				continue // existing copies of carried-over values are kept
			}
			cur[v] = s
			// Prune: instructions whose replicable operands are all
			// decided must already be conflict-free.
			ok := true
			for _, ops := range relevant {
				decided := true
				involved := false
				for _, o := range ops {
					if o == v {
						involved = true
					}
					if replSet[o] && cur[o] == 0 {
						decided = false
					}
				}
				if involved && decided && !duplication.ConflictFree(ops, cur) {
					ok = false
					break
				}
			}
			if ok {
				rec(idx+1, cost+s.Count(), cur)
			}
		}
		delete(cur, v)
	}
	// Fixed storage cost; replicable values' sets are chosen by the search
	// (as supersets of any carried-over copies).
	cost0 := base.TotalCopies()
	for _, v := range repl {
		cost0 -= base[v].Count()
	}
	rec(0, cost0, base.Clone())

	if searchErr != nil && errors.Is(searchErr, budget.ErrCanceled) {
		return duplication.Result{}, searchErr
	}
	if best == nil {
		// No feasible placement (fixed values clash), or the budget ran
		// out before the first complete placement; fall back to full
		// replication so Residual reporting is meaningful.
		cur := base.Clone()
		for _, v := range repl {
			cur[v] = full
		}
		best = cur
	}
	res := duplication.Result{Copies: best}
	for i, instr := range in.Instrs {
		if !duplication.ConflictFree(instr.Normalize(), best) {
			res.Residual = append(res.Residual, i)
		}
	}
	res.NewCopies = best.TotalCopies() - len(best)
	if searchErr != nil {
		return res, fmt.Errorf("oracle: exact search incomplete, copy count is an upper bound: %w", searchErr)
	}
	return res, nil
}
