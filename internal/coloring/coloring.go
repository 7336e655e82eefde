// Package coloring implements the graph-coloring stage of memory-module
// assignment (Gupta & Soffa, PPOPP 1988, §2.1, Fig. 4).
//
// Nodes are data values, colors are memory modules, and an edge means the
// two values appear in the same long instruction and therefore must live in
// different modules. The paper's heuristic colors nodes in order of
// "urgency" and removes a node into V_unassigned whenever no module remains
// for it; removed values are later replicated by internal/duplication.
//
// The DSATUR and first-fit baselines, the exact branch-and-bound colorer
// and the map-graph original of the heuristic live in internal/oracle.
package coloring

import (
	"fmt"

	"parmem/internal/arena"
	"parmem/internal/faultinject"
	"parmem/internal/graph"
)

// PickPolicy selects which available module an assignable node receives.
type PickPolicy int

const (
	// LowestIndex deterministically picks the smallest-numbered available
	// module. This is the default.
	LowestIndex PickPolicy = iota
	// LeastLoaded picks the available module holding the fewest values so
	// far (ties toward the smallest index), spreading values evenly.
	LeastLoaded
)

// Options configures a coloring run.
type Options struct {
	// K is the number of memory modules (colors); it must be >= 1.
	K int
	// Precolored fixes module assignments decided by an earlier phase
	// (separator vertices of a previous atom, globals in STOR2, earlier
	// instruction groups in STOR3). Precolored nodes are never moved and
	// never removed.
	Precolored map[int]int
	// Pick selects the module-choice policy; zero value is LowestIndex.
	Pick PickPolicy
	// Scratch optionally supplies the arena the selection loop borrows its
	// buffers from — worker pools pass their per-worker shard so repeated
	// colorings reuse one working set. The caller owns its lifecycle
	// (Reset between calls); nil draws a Scratch from the global pool for
	// the duration of the call.
	Scratch *arena.Scratch
}

// Result is the outcome of a coloring run.
type Result struct {
	// Assign maps each colored node to its module in [0,K).
	Assign map[int]int
	// Unassigned lists the removed nodes (paper V_unassigned) in removal
	// order.
	Unassigned []int
}

// GuptaSoffa colors g with opt.K colors using the urgency heuristic of
// paper Fig. 4. Nodes that cannot be colored are removed into
// Result.Unassigned instead of failing. Panics if opt.K < 1 (caller bug) or
// if a precolored node has an out-of-range module.
//
// It snapshots g into the dense graph core (graph.Dense) and runs
// allocation-free index loops; oracle.GuptaSoffaMap is the map-graph
// original, which produces bit-identical results.
func GuptaSoffa(g *graph.Graph, opt Options) Result {
	faultinject.Check("coloring.guptasoffa")
	return guptaSoffaDense(g, opt)
}

// pickModule returns an unused module index per the policy. At least one
// module must be free.
func pickModule(used []bool, load []int, pick PickPolicy) int {
	best := -1
	for m := range used {
		if used[m] {
			continue
		}
		switch {
		case best == -1:
			best = m
		case pick == LeastLoaded && load[m] < load[best]:
			best = m
		}
	}
	if best == -1 {
		panic("coloring: pickModule called with no free module")
	}
	return best
}

// CheckProper verifies that assign is a proper partial coloring of g: no
// edge joins two assigned nodes of the same color. It returns the first
// offending edge in (U,V) order, or ok. The scan walks adjacency in node
// order with a reusable neighbor buffer instead of materializing the full
// edge list.
func CheckProper(g *graph.Graph, assign map[int]int) error {
	var nbuf []int
	for _, u := range g.Nodes() {
		cu, okU := assign[u]
		if !okU {
			continue
		}
		nbuf = g.NeighborsAppend(u, nbuf[:0])
		for _, v := range nbuf {
			if v <= u {
				continue // each edge once, as (min,max) — Edges() order
			}
			if cv, okV := assign[v]; okV && cu == cv {
				return fmt.Errorf("coloring: adjacent nodes %d and %d share module %d", u, v, cu)
			}
		}
	}
	return nil
}
