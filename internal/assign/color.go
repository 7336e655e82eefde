package assign

import (
	"runtime"
	"sort"

	"parmem/internal/arena"
	"parmem/internal/atoms"
	"parmem/internal/coloring"
	"parmem/internal/graph"
	"parmem/internal/telemetry"
)

// workerCount resolves Options.Workers, the width of the decomposition's
// component fan-out: 0 means one worker per available CPU, anything below
// 2 keeps it on the caller's goroutine.
func (opt Options) workerCount() int {
	if opt.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if opt.Workers < 1 {
		return 1
	}
	return opt.Workers
}

// colorAtom colors one atom of the decomposition of work on its induced
// sub-snapshot, against the shared state the atoms colored before it left:
// the vertices they removed and the modules they assigned. The span
// (parented under the current phase) carries the atom's size and outcome.
//
// sc supplies every borrowed buffer, including the sub-snapshot and the
// colorer's own scratch (via coloring.Options.Scratch); the caller owns it
// and Resets it between atoms.
func colorAtom(st *phaseState, work *graph.Dense, a atoms.Atom, removed map[int]bool, assigned, pre map[int]int, opt Options, sc *arena.Scratch) coloring.Result {
	sp := st.rec.StartSpan("atom", st.span)
	if sp != nil {
		sp.SetAttr("size", int64(len(a.Nodes)))
		defer sp.End()
	}
	st.rec.Counter(telemetry.MColorings).Inc()
	// Vertices a previously processed atom failed to color are no longer
	// coloring candidates anywhere: they will be replicated, and the SDR
	// checks of the duplication stage cover their conflicts. The colorer
	// only reads Precolored, so the map can live in the arena.
	keep := sc.Int32s(len(a.Nodes))[:0]
	preA := sc.IntMap(len(a.Nodes))
	for _, v := range a.Nodes {
		if removed[v] {
			continue
		}
		keep = append(keep, work.Index(v))
		if m, ok := pre[v]; ok {
			preA[v] = m
		}
		if m, ok := assigned[v]; ok {
			preA[v] = m // separator vertex colored by a later atom
		}
	}
	res := color(work.Sub(keep, sc), coloring.Options{K: opt.K, Precolored: preA, Scratch: sc})
	sp.SetAttr("unassigned", int64(len(res.Unassigned)))
	return res
}

// colorAtoms colors every atom of dec, the decomposition of work, in
// reverse carve order. It returns the merged assignment and the sorted,
// deduplicated unassigned set.
func colorAtoms(st *phaseState, work *graph.Dense, dec atoms.Decomposition, pre map[int]int, opt Options) (map[int]int, []int) {
	assigned := map[int]int{}
	removed := map[int]bool{}
	var unassigned []int
	sc := arena.Get()
	defer sc.Release()
	for i := len(dec.Atoms) - 1; i >= 0; i-- {
		res := colorAtom(st, work, dec.Atoms[i], removed, assigned, pre, opt, sc)
		sc.Reset()
		for v, m := range res.Assign {
			assigned[v] = m
		}
		for _, v := range res.Unassigned {
			removed[v] = true
			unassigned = append(unassigned, v)
		}
	}
	sort.Ints(unassigned)
	return assigned, dedupSorted(unassigned)
}
