package atoms

import (
	"container/heap"
	"slices"
	"sort"

	"parmem/internal/arena"
	"parmem/internal/graph"
)

// mcsmDense is MCS-M on the frozen dense graph core. The map-backed
// implementation (oracle.MCSMRef) allocates a weight map, a visited map and a
// sorted neighbor slice per elimination step; this version runs the same
// algorithm over index-addressed scratch arrays reused across steps.
//
// Dense indices ascend with original ids, so every id-based tie-break
// (heap pops, bottleneck extract-min, bumped-vertex ordering) is preserved
// and the returned ordering and fill are bit-identical to oracle.MCSMRef's.
func mcsmDense(d *graph.Dense, sc *arena.Scratch) Triangulation {
	n := d.N()
	weight := sc.Ints(n)
	// numbered is a bitset so the "unnumbered neighbors of x" scans below
	// run word-at-a-time through the dense adjacency rows.
	numbered := sc.Uint64s(graph.BitsetWords(n))
	order := sc.Ints(n) // dense indices; converted to ids at the end
	var fill []graph.Edge

	// Lazy max-heap of candidate (index, weight) pairs; stale entries are
	// skipped on pop.
	h := &wheap{}
	for i := 0; i < n; i++ {
		heap.Push(h, wItem{i, 0})
	}

	// Bottleneck-search scratch, reused across elimination steps: mw[u] is
	// valid only while mwSet[u]; touched lists the set entries to reset.
	mw := sc.Ints(n)
	mwSet := sc.Bools(n)
	touched := sc.Int32s(n)[:0]
	// pq entries pack (distance+1, vertex) into one uint64, kept as a binary
	// min-heap (pqPush/pqPop); the packed order equals (distance, vertex)
	// lexicographic order because both halves are non-negative, and every
	// live key is distinct — push only appends a vertex's key when its mw
	// strictly improves — so the heap's minimum is the unique minimum the
	// old linear scan found and the visit order is unchanged.
	pq := sc.Uint64s(n)[:0]
	bumped := sc.Int32s(n)[:0]
	nbuf := sc.Int32s(n)[:0] // unnumbered-neighbor scan buffer

	for i := n - 1; i >= 0; i-- {
		// Pick the unnumbered vertex with maximum weight (lowest index on
		// tie — the heap comparator).
		var v int32
		for {
			it := heap.Pop(h).(wItem)
			if !graph.TestBit(numbered, int32(it.v)) && weight[it.v] == it.w {
				v = int32(it.v)
				break
			}
		}
		order[i] = int(v)
		graph.SetBit(numbered, v)

		// Bottleneck search: mw[u] = minimum over v→u paths through
		// unnumbered intermediates of the maximum intermediate weight
		// (-1 when u is a direct neighbor). u is reachable "for increment"
		// iff mw[u] < weight[u].
		for _, u := range touched {
			mwSet[u] = false
		}
		touched = touched[:0]
		pq = pq[:0]
		push := func(u int32, dd int) {
			if !mwSet[u] {
				mwSet[u] = true
				mw[u] = dd
				touched = append(touched, u)
				pq = pqPush(pq, uint64(dd+1)<<32|uint64(uint32(u)))
			} else if dd < mw[u] {
				mw[u] = dd
				pq = pqPush(pq, uint64(dd+1)<<32|uint64(uint32(u)))
			}
		}
		nbuf = d.RowAndNotInto(v, numbered, nbuf[:0])
		for _, u := range nbuf {
			push(u, -1)
		}
		for len(pq) > 0 {
			var key uint64
			key, pq = pqPop(pq)
			curD := int(key>>32) - 1
			curV := int32(uint32(key))
			if curD > mw[curV] {
				continue // stale
			}
			through := curD
			if weight[curV] > through {
				through = weight[curV]
			}
			// v itself is already numbered, so the mask also drops the old
			// x != v exclusion.
			nbuf = d.RowAndNotInto(curV, numbered, nbuf[:0])
			for _, x := range nbuf {
				push(x, through)
			}
		}
		// Increment and add fill edges, lowest index (= lowest id) first.
		bumped = bumped[:0]
		for _, u := range touched {
			if mw[u] < weight[u] {
				bumped = append(bumped, u)
			}
		}
		slices.Sort(bumped)
		for _, u := range bumped {
			weight[u]++
			heap.Push(h, wItem{int(u), weight[u]})
			if !d.HasEdgeIdx(u, v) {
				a, b := d.ID(u), d.ID(v)
				if a > b {
					a, b = b, a
				}
				fill = append(fill, graph.Edge{U: a, V: b, W: 1})
			}
		}
	}
	sort.Slice(fill, func(i, j int) bool {
		if fill[i].U != fill[j].U {
			return fill[i].U < fill[j].U
		}
		return fill[i].V < fill[j].V
	})
	out := make([]int, n)
	for i, idx := range order {
		out[i] = d.ID(int32(idx))
	}
	return Triangulation{Order: out, Fill: fill}
}

// pqPush appends packed key x to the binary min-heap pq and restores the
// heap property. Keys are unique (see mcsmDense), so pqPop's minimum is
// deterministic without a tie-break.
func pqPush(pq []uint64, x uint64) []uint64 {
	pq = append(pq, x)
	i := len(pq) - 1
	for i > 0 {
		p := (i - 1) / 2
		if pq[p] <= pq[i] {
			break
		}
		pq[p], pq[i] = pq[i], pq[p]
		i = p
	}
	return pq
}

// pqPop removes and returns the minimum key of the binary min-heap pq.
func pqPop(pq []uint64) (uint64, []uint64) {
	min := pq[0]
	last := len(pq) - 1
	pq[0] = pq[last]
	pq = pq[:last]
	i := 0
	for {
		s := i
		if l := 2*i + 1; l < len(pq) && pq[l] < pq[s] {
			s = l
		}
		if r := 2*i + 2; r < len(pq) && pq[r] < pq[s] {
			s = r
		}
		if s == i {
			break
		}
		pq[i], pq[s] = pq[s], pq[i]
		i = s
	}
	return min, pq
}

// cliqueIdx reports whether the dense indices in sIdx are pairwise adjacent
// in gd, comparing whole adjacency words against the set's bitset (sbits,
// with swords listing its non-zero word indices) when gd has a bitset form.
// It answers exactly like pairwise HasEdgeIdx probes — each pair must be an
// edge — just 64 candidates per word instead of one.
func cliqueIdx(gd *graph.Dense, sIdx []int32, sbits []uint64, swords []int32) bool {
	if !gd.HasRowWords() {
		for i := 0; i < len(sIdx); i++ {
			for j := i + 1; j < len(sIdx); j++ {
				if !gd.HasEdgeIdx(sIdx[i], sIdx[j]) {
					return false
				}
			}
		}
		return true
	}
	for _, u := range sIdx {
		uw := int(u) >> 6
		for _, w := range swords {
			need := sbits[w]
			if int(w) == uw {
				need &^= 1 << (uint(u) & 63) // a vertex is not its own neighbor
			}
			if need&^gd.RowWord(u, int(w)) != 0 {
				return false
			}
		}
	}
	return true
}

// decomposeConnectedDense appends the atoms of the connected graph g to d,
// using the dense core for the frozen reads: MCS-M runs on a Dense snapshot
// of g, the triangulation H = G+F is snapshotted once fill edges are known,
// clique tests compare whole words of G's bitset adjacency, and the
// shrinking G' scans reuse neighbor buffers.
//
// All frozen state (the gd/hd snapshots, the elimination scratch, the
// position table) is borrowed from sc; the atoms and separators appended to
// d are freshly allocated and outlive it. A nil sc allocates fresh buffers
// throughout. The caller owns sc's lifecycle (the worker pools Reset their
// shard between components).
func decomposeConnectedDense(g *graph.Graph, d *Decomposition, sc *arena.Scratch) {
	gd := graph.FromGraphScratch(g, sc)
	tri := mcsmDense(gd, sc)
	d.Fill += len(tri.Fill)

	// H = G + fill, frozen after construction.
	h := g.Clone()
	for _, e := range tri.Fill {
		h.AddEdge(e.U, e.V, 0)
	}
	hd := graph.FromGraphScratch(h, sc)

	// pos[i] = position of dense index i in the elimination order. H has
	// exactly G's vertex set, so gd and hd share one id↔index mapping.
	pos := sc.Ints(gd.N())
	for i, v := range tri.Order {
		pos[gd.Index(v)] = i
	}

	gp := g.Clone() // G', shrinking as components split off
	var s []int
	// Candidate-separator scratch for the word-parallel clique test: the
	// dense indices of S, their bitset, and the bitset's non-zero words
	// (cleared again after each candidate, so the zeroing cost is |S|, not
	// n/64).
	sIdx := sc.Int32s(gd.N())[:0]
	sbits := sc.Uint64s(graph.BitsetWords(gd.N()))
	swords := sc.Int32s(graph.BitsetWords(gd.N()))[:0]
	for i, x := range tri.Order {
		if !gp.HasNode(x) {
			continue // already carved out with an earlier atom's component
		}
		// S = later neighbors of x in H that are still present in G'.
		// hd rows are ascending by index (= by id), so s is born sorted.
		s = s[:0]
		sIdx = sIdx[:0]
		swords = swords[:0]
		for _, u := range hd.Row(hd.Index(x)) {
			if pos[u] > i && gp.HasNode(gd.ID(u)) {
				s = append(s, gd.ID(u))
				sIdx = append(sIdx, u)
				if w := u >> 6; sbits[w] == 0 {
					swords = append(swords, w)
				}
				graph.SetBit(sbits, u)
			}
		}
		clique := len(s) > 0 && cliqueIdx(gd, sIdx, sbits, swords)
		for _, u := range sIdx {
			graph.ClearBit(sbits, u)
		}
		if !clique {
			continue
		}
		// S is a clique in G; check that removing it separates x from the
		// rest of G'.
		comp := gp.ComponentContaining(x, s)
		if len(comp)+len(s) >= gp.NumNodes() {
			continue // not a proper split: C ∪ S is all of G'
		}
		// S must be a *minimal* separator (see minimalSeparator).
		if !minimalSeparator(gp, s, comp) {
			continue
		}
		atomNodes := append(append([]int{}, comp...), s...)
		sort.Ints(atomNodes)
		d.Atoms = append(d.Atoms, makeAtom(g, atomNodes))
		d.Separators = append(d.Separators, append([]int{}, s...))
		for _, c := range comp {
			gp.RemoveNode(c)
		}
	}
	if gp.NumNodes() > 0 {
		d.Atoms = append(d.Atoms, makeAtom(g, gp.Nodes()))
	}
}
