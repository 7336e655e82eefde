// Package atoms implements decomposition of a graph into atoms — maximal
// subgraphs without clique separators (Tarjan, Decomposition by Clique
// Separators, Discrete Math. 55, 1985).
//
// The paper's coloring stage (Gupta & Soffa §2.1) first splits the
// access-conflict graph into atoms: if every atom is k-colorable then the
// whole graph is, so the heuristic only ever works on one atom at a time.
//
// The decomposition follows the classic two-step scheme:
//
//  1. Compute a minimal triangulation H = G+F and a minimal elimination
//     ordering via MCS-M (Berry, Blair, Heggernes, Villanger, Maximum
//     Cardinality Search for Computing Minimal Triangulations of Graphs,
//     Algorithmica 2004).
//  2. Scan vertices in elimination order; whenever the not-yet-eliminated
//     H-neighborhood of a vertex is a clique in G, it is a clique minimal
//     separator: split off the component containing the vertex as an atom.
package atoms

import (
	"parmem/internal/arena"
	"parmem/internal/graph"
)

// Atom is one subgraph of the decomposition.
type Atom struct {
	Nodes []int        // sorted vertex ids
	Graph *graph.Graph // subgraph of the original graph induced by Nodes
}

// Decomposition is the result of Decompose.
type Decomposition struct {
	Atoms      []Atom  // atoms in the order they were split off
	Separators [][]int // the clique minimal separators used, sorted sets
	Fill       int     // number of fill edges added by the minimal triangulation
}

// MaxAtomSize returns the node count of the largest atom (0 when there are
// none) — the quantity that bounds per-atom coloring cost, reported by the
// telemetry layer.
func (d Decomposition) MaxAtomSize() int {
	max := 0
	for _, a := range d.Atoms {
		if len(a.Nodes) > max {
			max = len(a.Nodes)
		}
	}
	return max
}

// Triangulation is the result of MCSM: a minimal elimination ordering and
// the fill edges whose addition to G yields a chordal graph H.
type Triangulation struct {
	// Order lists the vertices in elimination order: Order[0] is
	// eliminated first.
	Order []int
	// Fill contains the added edges (U < V).
	Fill []graph.Edge
}

// wheap is a max-heap of (weight, -id) so ties break toward the lowest id,
// keeping the whole pipeline deterministic.
type wItem struct {
	v, w int
}
type wheap []wItem

func (h wheap) Len() int { return len(h) }
func (h wheap) Less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w > h[j].w
	}
	return h[i].v < h[j].v
}
func (h wheap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *wheap) Push(x any)   { *h = append(*h, x.(wItem)) }
func (h *wheap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// MCSM runs the MCS-M algorithm on g, returning a minimal elimination
// ordering and the fill of the corresponding minimal triangulation. It runs
// on a dense snapshot of g (see mcsmDense); oracle.MCSMRef is the
// map-backed original, which produces bit-identical results.
func MCSM(g *graph.Graph) Triangulation {
	sc := arena.Get()
	defer sc.Release()
	return mcsmDense(graph.FromGraphScratch(g, sc), sc)
}

// Decompose splits g into its atoms. The union of the atoms' vertex sets
// covers V(g), every edge of g appears in at least one atom, and the vertices
// of each clique minimal separator are shared between atoms. A disconnected
// graph is decomposed one connected component at a time. An empty graph
// yields no atoms.
//
// The per-component work runs on the dense graph core; oracle.DecomposeRef
// is the map-backed original, which produces bit-identical results.
func Decompose(g *graph.Graph) Decomposition {
	var d Decomposition
	sc := arena.Get()
	defer sc.Release()
	for _, comp := range g.ConnectedComponents() {
		decomposeConnectedDense(g.Induced(comp), &d, sc)
		sc.Reset()
	}
	return d
}

func makeAtom(g *graph.Graph, nodes []int) Atom {
	return Atom{Nodes: nodes, Graph: g.Induced(nodes)}
}

// minimalSeparator reports whether the clique set s is a minimal separator
// of gp with respect to the component comp: every vertex of s must have a
// gp-neighbor inside comp and a gp-neighbor outside comp ∪ s.
func minimalSeparator(gp *graph.Graph, s, comp []int) bool {
	inComp := make(map[int]bool, len(comp))
	for _, c := range comp {
		inComp[c] = true
	}
	inSep := make(map[int]bool, len(s))
	for _, v := range s {
		inSep[v] = true
	}
	for _, v := range s {
		hasIn, hasOut := false, false
		for _, u := range gp.Neighbors(v) {
			switch {
			case inComp[u]:
				hasIn = true
			case !inSep[u]:
				hasOut = true
			}
		}
		if !hasIn || !hasOut {
			return false
		}
	}
	return true
}
