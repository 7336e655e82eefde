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
// algorithm over index-addressed scratch arrays reused across steps. It
// returns the elimination order and the fill edges (sorted, U < V) as dense
// indices; order is borrowed from sc.
//
// Dense indices ascend with original ids, so every id-based tie-break
// (heap pops, bottleneck extract-min, bumped-vertex ordering) is preserved
// and the ordering and fill are bit-identical to oracle.MCSMRef's.
func mcsmDense(d *graph.Dense, sc *arena.Scratch) ([]int, []graph.Edge) {
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
				a, b := int(min(u, v)), int(max(u, v))
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
	return order, fill
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

// decomposeConnectedDense appends the atoms of the connected snapshot gd
// to d. MCS-M runs on gd; H = G+F is G's rows plus a side adjacency of the
// fill edges; the shrinking G' is an alive bitset over gd's indices, and
// its component searches and minimal-separator tests walk G's rows
// restricted to it; clique tests compare whole words of G's bitset
// adjacency.
//
// All working state is borrowed from sc and sized by gd; the atoms and
// separators appended to d are freshly allocated and outlive it. The
// caller owns sc's lifecycle (the worker pools Reset their shard between
// components).
func decomposeConnectedDense(gd *graph.Dense, d *Decomposition, sc *arena.Scratch) {
	n := gd.N()
	words := graph.BitsetWords(n)
	order, fill := mcsmDense(gd, sc)
	d.Fill += len(fill)

	// H's extra adjacency: the fill edges as a CSR side table. The fill is
	// sorted by (U,V), so each fill row is born ascending.
	foff := sc.Int32s(n + 1)
	for _, e := range fill {
		foff[e.U+1]++
		foff[e.V+1]++
	}
	for i := 0; i < n; i++ {
		foff[i+1] += foff[i]
	}
	fnbr := sc.Int32s(2 * len(fill))
	next := sc.Int32s(n)
	copy(next, foff[:n])
	for _, e := range fill {
		fnbr[next[e.U]] = int32(e.V)
		fnbr[next[e.V]] = int32(e.U)
		next[e.U]++
		next[e.V]++
	}

	// pos[i] = position of dense index i in the elimination order.
	pos := sc.Ints(n)
	for i, x := range order {
		pos[x] = i
	}

	alive := sc.Uint64s(words) // G', shrinking as components split off
	for i := int32(0); int(i) < n; i++ {
		graph.SetBit(alive, i)
	}
	aliveN := n
	// Candidate-separator scratch for the word-parallel clique test: the
	// dense indices of S, their bitset, and the bitset's non-zero words
	// (cleared again after each candidate, so the zeroing cost is |S|, not
	// n/64). inComp marks the component of the current candidate the same
	// way.
	sIdx := sc.Int32s(n)[:0]
	sbits := sc.Uint64s(words)
	swords := sc.Int32s(words)[:0]
	inComp := sc.Uint64s(words)
	comp := sc.Int32s(n)[:0]
	for i, x := range order {
		if !graph.TestBit(alive, int32(x)) {
			continue // already carved out with an earlier atom's component
		}
		// S = later neighbors of x in H that are still present in G': the
		// merge of x's ascending G and fill rows, so S is born sorted.
		sIdx = sIdx[:0]
		swords = swords[:0]
		grow, frow := gd.Row(int32(x)), fnbr[foff[x]:foff[x+1]]
		for len(grow) > 0 || len(frow) > 0 {
			var u int32
			if len(frow) == 0 || (len(grow) > 0 && grow[0] < frow[0]) {
				u, grow = grow[0], grow[1:]
			} else {
				u, frow = frow[0], frow[1:]
			}
			if pos[u] > i && graph.TestBit(alive, u) {
				sIdx = append(sIdx, u)
				if w := u >> 6; sbits[w] == 0 {
					swords = append(swords, w)
				}
				graph.SetBit(sbits, u)
			}
		}
		if len(sIdx) > 0 && cliqueIdx(gd, sIdx, sbits, swords) {
			// S is a clique in G; check that removing it separates x from
			// the rest of G', and that it is a *minimal* separator (see
			// minimalSeparator).
			comp = componentOf(gd, int32(x), alive, sbits, inComp, comp[:0])
			if len(comp)+len(sIdx) < aliveN && minimalSeparator(gd, sIdx, alive, sbits, inComp) {
				d.Atoms = append(d.Atoms, Atom{Nodes: mergeIDs(gd, comp, sIdx)})
				d.Separators = append(d.Separators, mergeIDs(gd, sIdx, nil))
				for _, c := range comp {
					graph.ClearBit(alive, c)
				}
				aliveN -= len(comp)
			}
			for _, c := range comp {
				graph.ClearBit(inComp, c)
			}
		}
		for _, u := range sIdx {
			graph.ClearBit(sbits, u)
		}
	}
	if aliveN > 0 {
		d.Atoms = append(d.Atoms, Atom{Nodes: mergeIDs(gd, graph.AppendSetBits(comp[:0], alive), nil)})
	}
}

// componentOf appends to comp, sorted, the component of x in G' = gd
// restricted to alive with the separator sep deleted, marking it in inComp.
func componentOf(gd *graph.Dense, x int32, alive, sep, inComp []uint64, comp []int32) []int32 {
	graph.SetBit(inComp, x)
	comp = append(comp, x)
	for next := 0; next < len(comp); next++ {
		for _, u := range gd.Row(comp[next]) {
			if graph.TestBit(alive, u) && !graph.TestBit(sep, u) && !graph.TestBit(inComp, u) {
				graph.SetBit(inComp, u)
				comp = append(comp, u)
			}
		}
	}
	slices.Sort(comp)
	return comp
}

// minimalSeparator reports whether the clique s is a minimal separator of
// G' (gd restricted to alive) with respect to the component inComp: every
// vertex of s needs a G'-neighbor inside the component and another outside
// it and s. (madj sets of a minimal elimination ordering can be cliques
// without being minimal separators — e.g. the madj {2,3} of the outer
// vertex of a bowtie — and splitting on those emits spurious sub-atoms.)
func minimalSeparator(gd *graph.Dense, s []int32, alive, sbits, inComp []uint64) bool {
	for _, v := range s {
		hasIn, hasOut := false, false
		for _, u := range gd.Row(v) {
			switch {
			case !graph.TestBit(alive, u):
			case graph.TestBit(inComp, u):
				hasIn = true
			case !graph.TestBit(sbits, u):
				hasOut = true
			}
		}
		if !hasIn || !hasOut {
			return false
		}
	}
	return true
}

// mergeIDs returns the original ids of the union of the ascending,
// disjoint index lists a and b, ascending, in fresh storage.
func mergeIDs(gd *graph.Dense, a, b []int32) []int {
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && a[0] < b[0]) {
			out, a = append(out, gd.ID(a[0])), a[1:]
		} else {
			out, b = append(out, gd.ID(b[0])), b[1:]
		}
	}
	return out
}
