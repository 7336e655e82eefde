package oracle

import (
	"fmt"
	"sort"

	"parmem/internal/coloring"
	"parmem/internal/graph"
)

// GuptaSoffaMap is the map-graph implementation of the urgency heuristic
// of paper Fig. 4, the reference coloring.GuptaSoffa is proven
// bit-identical to. Its signature matches coloring.GuptaSoffa, so
// assign.SetBackends can swap it in; it ignores opt.Scratch.
func GuptaSoffaMap(g *graph.Graph, opt coloring.Options) coloring.Result {
	k := opt.K
	if k < 1 {
		panic(fmt.Sprintf("coloring: K = %d, need at least one module", k))
	}
	assign := make(map[int]int, g.NumNodes())
	for v, m := range opt.Precolored {
		if m < 0 || m >= k {
			panic(fmt.Sprintf("coloring: precolored node %d has module %d outside [0,%d)", v, m, k))
		}
		if g.HasNode(v) {
			assign[v] = m
		}
	}
	res := coloring.Result{Assign: assign}

	// Directed edge weights, paper Fig. 4: edges leaving a node of degree
	// < k weigh nothing (any order colors such a node), otherwise the
	// weight is conf(ni,nj) — the number of instructions using both.
	wt := func(from, to int) int {
		if g.Degree(from) < k {
			return 0
		}
		return g.Weight(from, to)
	}

	// S_ni = total outgoing weight; the most conflicted node goes first.
	s := make(map[int]int, g.NumNodes())
	for _, v := range g.Nodes() {
		sum := 0
		for _, u := range g.Neighbors(v) {
			sum += wt(v, u)
		}
		s[v] = sum
	}

	rest := make(map[int]bool, g.NumNodes())
	for _, v := range g.Nodes() {
		if _, ok := assign[v]; !ok {
			rest[v] = true
		}
	}

	// availableCount returns K_nj (modules not used by assigned neighbors)
	// and the set itself.
	available := func(v int) []bool {
		used := make([]bool, k)
		for _, u := range g.Neighbors(v) {
			if m, ok := assign[u]; ok {
				used[m] = true
			}
		}
		return used
	}

	// If nothing is precolored, seed with the maximum-S node, assigned to
	// module 0 (paper: ASSIGN(n_first) = M1).
	if len(assign) == 0 && len(rest) > 0 {
		first := -1
		for v := range rest {
			if first == -1 || s[v] > s[first] || (s[v] == s[first] && v < first) {
				first = v
			}
		}
		assign[first] = 0
		delete(rest, first)
	}

	for len(rest) > 0 {
		// Choose n_next maximizing urgency U = (Σ incoming weight from
		// assigned neighbors) / K. Compare fractions num/den by
		// cross-multiplication; K = 0 is infinite urgency (the node must
		// be dealt with immediately — it goes to V_unassigned).
		type cand struct {
			v, num, den int // den = K_nj; den 0 means +inf urgency
		}
		best := cand{v: -1}
		better := func(a, b cand) bool {
			if b.v == -1 {
				return true
			}
			// Infinite urgencies first.
			if (a.den == 0) != (b.den == 0) {
				return a.den == 0
			}
			if a.den == 0 { // both infinite: higher num, then lower id
				if a.num != b.num {
					return a.num > b.num
				}
				return a.v < b.v
			}
			// a.num/a.den vs b.num/b.den.
			l, r := a.num*b.den, b.num*a.den
			if l != r {
				return l > r
			}
			if s[a.v] != s[b.v] {
				return s[a.v] > s[b.v]
			}
			return a.v < b.v
		}
		// Deterministic scan order.
		restSorted := make([]int, 0, len(rest))
		for v := range rest {
			restSorted = append(restSorted, v)
		}
		sort.Ints(restSorted)
		for _, v := range restSorted {
			used := available(v)
			den, num := 0, 0
			for m := 0; m < k; m++ {
				if !used[m] {
					den++
				}
			}
			for _, u := range g.Neighbors(v) {
				if _, ok := assign[u]; ok {
					num += wt(u, v)
				}
			}
			c := cand{v: v, num: num, den: den}
			if better(c, best) {
				best = c
			}
		}

		v := best.v
		delete(rest, v)
		if best.den == 0 {
			res.Unassigned = append(res.Unassigned, v)
			continue
		}
		// The lowest free module.
		used := available(v)
		m := 0
		for used[m] {
			m++
		}
		assign[v] = m
	}
	return res
}

// DSATUR colors g with k colors by the saturation-degree heuristic,
// removing nodes whose saturation reaches k, exactly as GuptaSoffa removes
// them, so the two heuristics are comparable by |Unassigned|.
func DSATUR(g *graph.Graph, k int) coloring.Result {
	if k < 1 {
		panic("oracle: DSATUR needs k >= 1")
	}
	assign := make(map[int]int, g.NumNodes())
	res := coloring.Result{Assign: assign}
	remaining := make(map[int]bool)
	for _, v := range g.Nodes() {
		remaining[v] = true
	}
	satur := func(v int) map[int]bool {
		set := map[int]bool{}
		for _, u := range g.Neighbors(v) {
			if c, ok := assign[u]; ok {
				set[c] = true
			}
		}
		return set
	}
	for len(remaining) > 0 {
		// Max saturation, tie: max degree, tie: lowest id.
		best, bestSat, bestDeg := -1, -1, -1
		keys := make([]int, 0, len(remaining))
		for v := range remaining {
			keys = append(keys, v)
		}
		sort.Ints(keys)
		for _, v := range keys {
			sat := len(satur(v))
			deg := g.Degree(v)
			if sat > bestSat || (sat == bestSat && deg > bestDeg) {
				best, bestSat, bestDeg = v, sat, deg
			}
		}
		delete(remaining, best)
		used := satur(best)
		colored := false
		for c := 0; c < k; c++ {
			if !used[c] {
				assign[best] = c
				colored = true
				break
			}
		}
		if !colored {
			res.Unassigned = append(res.Unassigned, best)
		}
	}
	return res
}

// FirstFit colors nodes in ascending id order with the lowest free color,
// removing nodes with no free color. It is the weakest baseline.
func FirstFit(g *graph.Graph, k int) coloring.Result {
	if k < 1 {
		panic("oracle: FirstFit needs k >= 1")
	}
	assign := make(map[int]int, g.NumNodes())
	res := coloring.Result{Assign: assign}
	for _, v := range g.Nodes() {
		used := make([]bool, k)
		for _, u := range g.Neighbors(v) {
			if c, ok := assign[u]; ok {
				used[c] = true
			}
		}
		colored := false
		for c := 0; c < k; c++ {
			if !used[c] {
				assign[v] = c
				colored = true
				break
			}
		}
		if !colored {
			res.Unassigned = append(res.Unassigned, v)
		}
	}
	return res
}

// ExactMinRemoved finds, by branch and bound, the minimum number of nodes
// whose removal leaves g k-colorable, returning an optimal Result. It is
// exponential and intended for graphs of at most ~20 nodes (ablation and
// worst-case tests only).
func ExactMinRemoved(g *graph.Graph, k int) coloring.Result {
	nodes := g.Nodes()
	n := len(nodes)
	bestRemoved := n + 1
	var bestAssign map[int]int
	var bestUnassigned []int

	assign := make(map[int]int, n)
	var removed []int

	var rec func(i, removedCount int)
	rec = func(i, removedCount int) {
		if removedCount >= bestRemoved {
			return // prune
		}
		if i == n {
			bestRemoved = removedCount
			bestAssign = make(map[int]int, len(assign))
			for v, c := range assign {
				bestAssign[v] = c
			}
			bestUnassigned = append([]int(nil), removed...)
			return
		}
		v := nodes[i]
		used := make([]bool, k)
		for _, u := range g.Neighbors(v) {
			if c, ok := assign[u]; ok {
				used[c] = true
			}
		}
		// Try each free color; symmetry break: allow only colors up to
		// (max used so far)+1 would be unsound with removals interleaved,
		// so try all free colors.
		for c := 0; c < k; c++ {
			if used[c] {
				continue
			}
			assign[v] = c
			rec(i+1, removedCount)
			delete(assign, v)
		}
		// Or remove v.
		removed = append(removed, v)
		rec(i+1, removedCount+1)
		removed = removed[:len(removed)-1]
	}
	rec(0, 0)
	sort.Ints(bestUnassigned)
	return coloring.Result{Assign: bestAssign, Unassigned: bestUnassigned}
}
