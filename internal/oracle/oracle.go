// Package oracle holds the reference implementations the engine's tests
// compare against. Nothing in a production binary imports it: the
// assignment engine runs the dense cores in internal/atoms,
// internal/coloring and internal/duplication, and the differential tests
// prove those bit-identical to the map-graph originals kept here.
//
// It holds three kinds of code:
//
//   - the map-graph originals of the hot phases: MCS-M and clique-separator
//     decomposition (MCSMRef, DecomposeRef, DecomposeParallelRef), the
//     urgency coloring of paper Fig. 4 (GuptaSoffaMap) and the SDR check
//     (HasSDRRef). assign.SetBackends swaps the first two pairs into the
//     whole pipeline;
//   - exact branch-and-bound solvers (ExactMinRemoved, ExactMinCopies)
//     that measure the heuristics' optimality gap on small instances;
//   - the DSATUR and first-fit coloring baselines of the ablation
//     benchmarks.
package oracle
