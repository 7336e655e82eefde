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
	"sync"
	"sync/atomic"

	"parmem/internal/arena"
	"parmem/internal/graph"
)

// Atom is one subgraph of the decomposition: the subgraph induced by its
// sorted vertex ids, which callers extract from their snapshot with
// graph.Dense.Sub when they need it.
type Atom struct {
	Nodes []int
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

// MCSM runs the MCS-M algorithm on d, returning a minimal elimination
// ordering and the fill of the corresponding minimal triangulation, by
// original id. oracle.MCSMRef is the map-backed original, which produces
// bit-identical results.
func MCSM(d *graph.Dense) Triangulation {
	sc := arena.Get()
	defer sc.Release()
	order, fill := mcsmDense(d, sc)
	tri := Triangulation{Order: make([]int, len(order)), Fill: fill}
	for i, x := range order {
		tri.Order[i] = d.ID(int32(x))
	}
	for j := range fill {
		fill[j].U, fill[j].V = d.ID(int32(fill[j].U)), d.ID(int32(fill[j].V))
	}
	return tri
}

// ParallelMinNodes is the size floor of Decompose's fan-out: only
// connected components of at least this many vertices go to the workers,
// and only when two or more of them reach it. A smaller component
// decomposes in less time than handing it to another goroutine costs, so
// it stays on the caller's. DESIGN §7 records the fit.
const ParallelMinNodes = 32

// Decompose splits d into its atoms. The union of the atoms' vertex sets
// covers the vertices of d, every edge appears in at least one atom, and
// the vertices of each clique minimal separator are shared between atoms.
// A disconnected graph is decomposed one connected component at a time,
// each on its own sub-snapshot; the components of at least
// ParallelMinNodes vertices are fanned across at most workers goroutines
// (the caller's among them) when there are two or more. The
// per-component results are merged in component order, so the output does
// not depend on workers. An empty graph yields no atoms.
// oracle.DecomposeRef is the map-backed original, which produces
// bit-identical results.
func Decompose(d *graph.Dense, workers int) Decomposition {
	comps := d.Components()
	var large []int // indices into comps of the components at the floor
	for i, comp := range comps {
		if len(comp) >= ParallelMinNodes {
			large = append(large, i)
		}
	}
	workers = min(workers, len(large))
	sc := arena.Get()
	defer sc.Release()
	if workers < 2 {
		var dec Decomposition
		for _, comp := range comps {
			decomposeConnectedDense(d.Sub(comp, sc), &dec, sc)
			sc.Reset()
		}
		return dec
	}

	// Every component decomposes into its own slot. The workers claim the
	// large components one at a time; the caller decomposes the small ones
	// first and then joins them. Each worker owns one Scratch, Reset
	// between components.
	parts := make([]Decomposition, len(comps))
	var next atomic.Int64
	claim := func(sc *arena.Scratch) {
		for i := next.Add(1) - 1; i < int64(len(large)); i = next.Add(1) - 1 {
			c := large[i]
			decomposeConnectedDense(d.Sub(comps[c], sc), &parts[c], sc)
			sc.Reset()
		}
	}
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			wsc := arena.Get()
			defer wsc.Release()
			claim(wsc)
		}(w)
	}
	func() {
		defer func() { panics[0] = recover() }()
		for i, comp := range comps {
			if len(comp) < ParallelMinNodes {
				decomposeConnectedDense(d.Sub(comp, sc), &parts[i], sc)
				sc.Reset()
			}
		}
		claim(sc)
	}()
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			// Re-raise on the caller's goroutine once every worker has
			// stopped, so the usual phase boundary recovery applies.
			panic(r)
		}
	}

	var dec Decomposition
	for _, p := range parts {
		dec.Atoms = append(dec.Atoms, p.Atoms...)
		dec.Separators = append(dec.Separators, p.Separators...)
		dec.Fill += p.Fill
	}
	return dec
}

// DecomposeParallel is Decompose on the snapshot of the map graph g, the
// graph-taking entry point the benchmark's layer timings call.
func DecomposeParallel(g *graph.Graph, workers int) Decomposition {
	return Decompose(graph.FromGraph(g), workers)
}
