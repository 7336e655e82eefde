package main

import (
	"fmt"
	"sort"
)

// The output checker is deliberately independent of the engine: it shares
// no code with duplication.HasSDR, duplication.ConflictFree or
// assign.Verify. It re-derives the paper's correctness condition from
// scratch — every long instruction must be able to fetch each of its
// distinct operands from a different memory module, choosing among the
// modules that hold a copy — with its own augmenting-path bipartite
// matching over plain slices.

// checkCopies returns the indexes of the instructions whose operands cannot
// be fetched conflict-free under copies (value id -> modules holding it) on
// a machine with k modules. A value with no copy, or a copy on a module
// outside 0..k-1, makes every instruction reading it fail.
func checkCopies(instrs [][]int, copies map[int][]int, k int) []int {
	var bad []int
	var m matcher
	for i, in := range instrs {
		if !m.fetchable(in, copies, k) {
			bad = append(bad, i)
		}
	}
	return bad
}

// matcher holds the scratch of one bipartite matching: operands on the
// left, modules on the right.
type matcher struct {
	ops     []int
	owner   []int // module -> index into ops, or -1
	visited []bool
}

// fetchable reports whether every distinct operand of in can be matched to
// its own module.
func (m *matcher) fetchable(in []int, copies map[int][]int, k int) bool {
	m.ops = append(m.ops[:0], in...)
	sort.Ints(m.ops)
	m.ops = dedupe(m.ops)
	if len(m.ops) > k {
		return false
	}
	for _, v := range m.ops {
		mods := copies[v]
		if len(mods) == 0 {
			return false
		}
		for _, mod := range mods {
			if mod < 0 || mod >= k {
				return false
			}
		}
	}
	m.owner = m.owner[:0]
	for j := 0; j < k; j++ {
		m.owner = append(m.owner, -1)
	}
	for i := range m.ops {
		m.visited = m.visited[:0]
		for j := 0; j < k; j++ {
			m.visited = append(m.visited, false)
		}
		if !m.augment(i, copies) {
			return false
		}
	}
	return true
}

// augment tries to match operand i, re-routing earlier matches along an
// alternating path when its modules are taken (Kuhn's algorithm).
func (m *matcher) augment(i int, copies map[int][]int) bool {
	for _, mod := range copies[m.ops[i]] {
		if m.visited[mod] {
			continue
		}
		m.visited[mod] = true
		if m.owner[mod] < 0 || m.augment(m.owner[mod], copies) {
			m.owner[mod] = i
			return true
		}
	}
	return false
}

// dedupe removes adjacent duplicates from a sorted slice in place.
func dedupe(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// checkResult applies checkCopies and turns a failure into an error naming
// the first bad instruction.
func checkResult(what string, instrs [][]int, copies map[int][]int, k int) error {
	if bad := checkCopies(instrs, copies, k); len(bad) > 0 {
		return fmt.Errorf("%s: %d instructions not fetchable conflict-free (first: #%d %v)",
			what, len(bad), bad[0], instrs[bad[0]])
	}
	return nil
}
