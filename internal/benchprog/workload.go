package benchprog

// Large synthetic assignment workloads for the scaling and blocked-bitset
// benchmarks. Unlike the MPL programs in this package, these generate raw
// instruction operand lists (value ids) fed straight into the assignment
// engine, so graph size, density and component count can be dialed far past
// what a compilable source program reaches — the chain family crosses the
// flat-bitset ceiling (2048 nodes) onto the blocked representation, and the
// cluster family exposes component-level parallelism to the worker pool.
//
// Both generators are deterministic: the same knobs always produce the same
// instruction stream, so they double as differential-test corpora (dense vs
// reference backend, parallel vs sequential engine).

// ChainInstrs builds `comps` disjoint chain-of-cliques components, each over
// n values: consecutive instructions of width `width` overlap in exactly one
// value, so every component is a connected chordal graph whose conflict
// graph has n nodes and whose atoms are the width-cliques themselves. With
// comps=1 and n past the flat-bitset ceiling this is the canonical
// blocked-bitset workload; width is the density knob (clique size, so it
// must stay at or below the module count for a conflict-free coloring to
// exist).
func ChainInstrs(comps, n, width int) [][]int {
	if width < 2 {
		width = 2
	}
	var out [][]int
	for c := 0; c < comps; c++ {
		base := c * n
		for lo := 0; lo < n-1; lo += width - 1 {
			hi := lo + width
			if hi > n {
				hi = n
			}
			in := make([]int, 0, width)
			for v := lo; v < hi; v++ {
				in = append(in, base+v+1)
			}
			out = append(out, in)
		}
	}
	return out
}

// ChainNodes returns the number of distinct values ChainInstrs(comps, n,
// width) touches — comps*n — so tests can assert the graph size they think
// they built.
func ChainNodes(comps, n int) int { return comps * n }

// ClusterInstrs builds `comps` disjoint circulant clusters of `per` values
// each, instruction width `width`: instruction i of a cluster reads values
// i..i+width-1 (mod per). Every cluster is one dense connected component and
// one atom, so the stream exposes exactly comps independent components while
// each cluster stays conflict-heavy enough that the searches dominate. comps
// is the component-count knob, width the density knob.
func ClusterInstrs(comps, per, width int) [][]int {
	out := make([][]int, 0, comps*per)
	for c := 0; c < comps; c++ {
		base := c * per
		for i := 0; i < per; i++ {
			in := make([]int, 0, width)
			for j := 0; j < width; j++ {
				in = append(in, base+1+(i+j)%per)
			}
			out = append(out, in)
		}
	}
	return out
}
