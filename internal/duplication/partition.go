package duplication

import (
	"sort"
	"sync"
	"sync/atomic"

	"parmem/internal/arena"
	"parmem/internal/conflict"
)

// This file parallelizes the duplication strategies across the connected
// components of the operand-sharing relation. Every instruction's operands
// form a clique in the conflict graph, so each instruction belongs to
// exactly one component, and both strategies are component-local: the
// backtracking search of one instruction reads and writes only the copies
// of that instruction's own operands, and the hitting-set machinery
// (candidate sets, occurrence vectors, placement scores) never couples
// values that share no instruction. Components can therefore be solved
// concurrently and merged in a fixed order with a result bit-identical to
// the sequential run — except for the global bookkeeping of Finish
// (load-balanced placement of copyless values and the residual scan),
// which must run exactly once over the merged copy table, never
// per component.

// Method selects the strategy core Cores runs.
type Method int

const (
	// MethodHittingSet is the global approach of paper Figs. 7, 9 and 10.
	MethodHittingSet Method = iota
	// MethodBacktrack is the per-instruction search of paper Fig. 6.
	MethodBacktrack
)

// component is one independent subproblem of an Input.
type component struct {
	in  Input
	min int // smallest member value id, for deterministic ordering
}

// partition splits in into independent subproblems: one per connected
// component of the operand-sharing relation, ordered by smallest member
// value, plus (last) a residue holding the unassigned values that appear
// in no instruction of this phase. The residue has an empty instruction
// list; running a core over it reproduces exactly what the sequential run
// does with such values (the hitting-set approach gives them their two
// context-free copies, the backtracking search ignores them).
func partition(in Input) []component {
	// Union-find over value ids; each instruction unions its operands.
	parent := map[int]int{}
	var find func(v int) int
	find = func(v int) int {
		p, ok := parent[v]
		if !ok {
			parent[v] = v
			return v
		}
		if p != v {
			p = find(p)
			parent[v] = p
		}
		return p
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	norm := make([]conflict.Instruction, len(in.Instrs))
	for i, instr := range in.Instrs {
		ops := instr.Normalize()
		norm[i] = ops
		for j := 1; j < len(ops); j++ {
			union(ops[0], ops[j])
		}
		if len(ops) > 0 {
			find(ops[0])
		}
	}

	members := map[int][]int{} // root -> sorted member values
	for v := range parent {
		r := find(v)
		members[r] = append(members[r], v)
	}

	byRoot := map[int]*component{}
	compOf := func(root int) *component {
		c, ok := byRoot[root]
		if !ok {
			c = &component{in: Input{K: in.K, Meter: in.Meter}, min: int(^uint(0) >> 1)}
			byRoot[root] = c
		}
		return c
	}
	for i, ops := range norm {
		if len(ops) == 0 {
			continue
		}
		c := compOf(find(ops[0]))
		c.in.Instrs = append(c.in.Instrs, in.Instrs[i])
	}
	for root, vs := range members {
		c := compOf(root)
		sort.Ints(vs)
		if vs[0] < c.min {
			c.min = vs[0]
		}
		for _, v := range vs {
			if m, ok := in.Assigned[v]; ok {
				if c.in.Assigned == nil {
					c.in.Assigned = map[int]int{}
				}
				c.in.Assigned[v] = m
			}
			if s, ok := in.Initial[v]; ok {
				if c.in.Initial == nil {
					c.in.Initial = Copies{}
				}
				c.in.Initial[v] = s
			}
		}
	}
	inComp := func(v int) bool { _, ok := parent[v]; return ok }
	var residue component
	residue.in = Input{K: in.K, Meter: in.Meter}
	residue.min = int(^uint(0) >> 1)
	for _, v := range in.Unassigned {
		if inComp(v) {
			c := compOf(find(v))
			c.in.Unassigned = append(c.in.Unassigned, v)
			continue
		}
		residue.in.Unassigned = append(residue.in.Unassigned, v)
		if s, ok := in.Initial[v]; ok {
			if residue.in.Initial == nil {
				residue.in.Initial = Copies{}
			}
			residue.in.Initial[v] = s
		}
	}

	comps := make([]component, 0, len(byRoot)+1)
	for _, c := range byRoot {
		comps = append(comps, *c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].min < comps[j].min })
	if len(residue.in.Unassigned) > 0 {
		comps = append(comps, residue)
	}
	return comps
}

// workerPanic carries a panic out of a worker goroutine so it can be
// re-raised on the caller's goroutine, where the assign boundary's recover
// converts it into a *budget.InternalError as usual.
type workerPanic struct{ value any }

// Cores runs the strategy core m over in, fanning the connected components
// of the operand-sharing relation across at most workers goroutines, and
// returns the merged copy table — every value that gained storage mapped to
// its modules, values no component touched riding through from Initial —
// with the most severe fallback taken: "" (none), "hittingset" (the
// backtracking search ran out of budget and handed the remaining
// placements to the hitting-set core) or "fullreplication" (remaining
// conflicting replicable values were copied to every module). Degraded
// copy tables are still correct; they just hold more copies.
//
// The result is not finished: pass it, possibly stitched together with the
// copies of components solved elsewhere, to Finish. workers <= 1, or an
// input with fewer than two components, runs one sequential core call. The
// merged result is bit-identical to the sequential one whenever the budget
// is not exhausted mid-run (the per-component hitting-set passes charge
// their smaller component sizes, so an exhausted meter can trip at
// different places — the degraded result is still Verify-clean either
// way).
func Cores(in Input, m Method, workers int) (Copies, string, error) {
	core := hittingCore
	if m == MethodBacktrack {
		core = backtrackCore
	}
	if workers <= 1 {
		return core(in)
	}
	comps := partition(in)
	if len(comps) < 2 {
		return core(in)
	}
	type outcome struct {
		copies   Copies
		fallback string
		err      error
		panicked *workerPanic
	}
	results := make([]outcome, len(comps))
	next := make(chan int)
	var stop atomic.Bool
	var wg sync.WaitGroup
	if workers > len(comps) {
		workers = len(comps)
	}
	// One arena shard per worker for the whole fan-out: each worker
	// solves its components against a private Scratch, Reset between
	// components, never touching the global pool mid-phase.
	shards := arena.GetShards(workers)
	defer shards.Release()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := shards.Worker(w)
			for i := range next {
				if stop.Load() {
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							results[i].panicked = &workerPanic{value: r}
							stop.Store(true)
						}
					}()
					cin := comps[i].in
					cin.Scratch = sc
					c, fb, err := core(cin)
					results[i] = outcome{copies: c, fallback: fb, err: err}
					if err != nil {
						stop.Store(true)
					}
				}()
				sc.Reset()
			}
		}(w)
	}
	for i := range comps {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, r := range results {
		if r.panicked != nil {
			panic(r.panicked.value)
		}
	}
	for _, r := range results {
		if r.err != nil {
			return nil, "", r.err
		}
	}
	// Merge in component order. Components hold disjoint value sets, so
	// the order only matters for determinism of map construction, not
	// content; values no component touched (pinned by earlier phases,
	// unused here) ride through from Initial.
	copies := in.Initial.Clone()
	if copies == nil {
		copies = Copies{}
	}
	fallbacks := make([]string, 0, len(results))
	for _, r := range results {
		for v, s := range r.copies {
			copies[v] = s
		}
		fallbacks = append(fallbacks, r.fallback)
	}
	return copies, mergeFallbacks(fallbacks), nil
}

// mergeFallbacks reduces per-component fallbacks to one label, keeping the
// most severe: fullreplication > hittingset > none.
func mergeFallbacks(fbs []string) string {
	out := ""
	for _, fb := range fbs {
		switch fb {
		case "fullreplication":
			return fb
		case "hittingset":
			out = fb
		}
	}
	return out
}
