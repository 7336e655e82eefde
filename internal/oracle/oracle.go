// Package oracle holds the reference implementations the engine's tests
// compare against. Nothing in a production binary imports it: the
// assignment engine runs the dense cores in internal/atoms,
// internal/coloring and internal/duplication on graph.Dense snapshots, and
// the differential tests prove those bit-identical to the map-graph
// originals kept here.
//
// It holds four kinds of code:
//
//   - the map-graph originals of the hot phases: MCS-M and clique-separator
//     decomposition (MCSMRef, DecomposeRef, DecomposeParallelRef), the
//     urgency coloring of paper Fig. 4 (GuptaSoffaMap) and the SDR check
//     (HasSDRRef);
//   - the adapter between the two representations: ToGraph copies a
//     snapshot or sub-snapshot into a map graph, and DecomposeSnapshot and
//     ColorSnapshot run the references on it behind the Dense-typed
//     signatures assign.SetBackends swaps into the whole pipeline;
//   - exact branch-and-bound solvers (ExactMinRemoved, ExactMinCopies)
//     that measure the heuristics' optimality gap on small instances;
//   - the DSATUR and first-fit coloring baselines of the ablation
//     benchmarks.
package oracle

import (
	"parmem/internal/atoms"
	"parmem/internal/coloring"
	"parmem/internal/graph"
)

// ToGraph copies the snapshot d — a whole snapshot or a sub-snapshot —
// into a map graph with the same ids, edges and weights.
func ToGraph(d *graph.Dense) *graph.Graph {
	g := graph.New()
	for _, v := range d.IDs() {
		g.AddNode(v)
	}
	for i := int32(0); int(i) < d.N(); i++ {
		wts := d.WeightRow(i)
		for j, u := range d.Row(i) {
			if i < u {
				g.AddEdge(d.ID(i), d.ID(u), int(wts[j]))
			}
		}
	}
	return g
}

// DecomposeSnapshot runs DecomposeParallelRef on ToGraph(d). Its signature
// matches atoms.Decompose, so assign.SetBackends can swap it in.
func DecomposeSnapshot(d *graph.Dense, workers int) atoms.Decomposition {
	return DecomposeParallelRef(ToGraph(d), workers)
}

// ColorSnapshot runs GuptaSoffaMap on ToGraph(d). Its signature matches
// coloring.GuptaSoffa, so assign.SetBackends can swap it in.
func ColorSnapshot(d *graph.Dense, opt coloring.Options) coloring.Result {
	return GuptaSoffaMap(ToGraph(d), opt)
}
