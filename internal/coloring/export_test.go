package coloring

import (
	"fmt"

	"parmem/internal/graph"
)

// Graph builders of the internal tests, for the external oracle tests.
var (
	CompleteGraph       = completeGraph
	CycleGraph          = cycleGraph
	RandomGraph         = randomGraph
	RandomConflictGraph = randomConflictGraph
)

// CheckProper verifies that assign is a proper partial coloring of g: no
// edge joins two assigned nodes of the same color. It returns the first
// offending edge in (U,V) order, or ok.
func CheckProper(g *graph.Graph, assign map[int]int) error {
	for _, u := range g.Nodes() {
		cu, okU := assign[u]
		if !okU {
			continue
		}
		for _, v := range g.Neighbors(u) {
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
