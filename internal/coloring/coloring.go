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
	"parmem/internal/arena"
	"parmem/internal/faultinject"
	"parmem/internal/graph"
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

// GuptaSoffa colors the snapshot d — in the engine, the induced
// sub-snapshot of one atom — with opt.K colors using the urgency heuristic
// of paper Fig. 4. Nodes that cannot be colored are removed into
// Result.Unassigned instead of failing. Panics if opt.K < 1 (caller bug) or
// if a precolored node has an out-of-range module.
//
// oracle.GuptaSoffaMap is the map-graph original, which produces
// bit-identical results.
func GuptaSoffa(d *graph.Dense, opt Options) Result {
	faultinject.Check("coloring.guptasoffa")
	return guptaSoffaDense(d, opt)
}

// lowestFree returns the smallest module index not in used: a node's
// module is always the lowest one its assigned neighbors leave free. At
// least one module must be free.
func lowestFree(used []bool) int {
	for m, taken := range used {
		if !taken {
			return m
		}
	}
	panic("coloring: lowestFree called with no free module")
}
