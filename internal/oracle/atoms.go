package oracle

import (
	"sort"
	"sync"

	"parmem/internal/atoms"
	"parmem/internal/graph"
)

// MCSMRef is the map-graph MCS-M (Berry, Blair, Heggernes & Peyton,
// Algorithmica 2004): a minimal elimination ordering of g and the fill of
// the corresponding minimal triangulation. Ties break toward the lowest
// vertex id, as in atoms.MCSM.
func MCSMRef(g *graph.Graph) atoms.Triangulation {
	nodes := g.Nodes()
	n := len(nodes)
	weight := make(map[int]int, n)
	numbered := make(map[int]bool, n)
	for _, v := range nodes {
		weight[v] = 0
	}
	order := make([]int, n) // order[i] eliminated i-th; filled back to front
	var fill []graph.Edge

	for i := n - 1; i >= 0; i-- {
		// Pick the unnumbered vertex with maximum weight (lowest id on tie;
		// nodes is sorted).
		v := -1
		for _, u := range nodes {
			if !numbered[u] && (v == -1 || weight[u] > weight[v]) {
				v = u
			}
		}
		order[i] = v
		numbered[v] = true

		// Bottleneck search: mw[u] = minimum over v→u paths through
		// unnumbered intermediates of the maximum intermediate weight
		// (-1 when u is a direct neighbor). u is reachable "for increment"
		// iff mw[u] < weight[u].
		mw := map[int]int{}
		type qi struct{ v, d int }
		var pq []qi
		push := func(u, d int) {
			if cur, ok := mw[u]; !ok || d < cur {
				mw[u] = d
				pq = append(pq, qi{u, d})
			}
		}
		for _, u := range g.Neighbors(v) {
			if !numbered[u] {
				push(u, -1)
			}
		}
		for len(pq) > 0 {
			// Extract min d (linear scan is fine: graphs here are small and
			// sparse; determinism matters more than asymptotics).
			best := 0
			for j := 1; j < len(pq); j++ {
				if pq[j].d < pq[best].d || (pq[j].d == pq[best].d && pq[j].v < pq[best].v) {
					best = j
				}
			}
			cur := pq[best]
			pq[best] = pq[len(pq)-1]
			pq = pq[:len(pq)-1]
			if cur.d > mw[cur.v] {
				continue // stale
			}
			// cur.v may act as an intermediate for its neighbors.
			through := cur.d
			if weight[cur.v] > through {
				through = weight[cur.v]
			}
			for _, x := range g.Neighbors(cur.v) {
				if !numbered[x] && x != v {
					push(x, through)
				}
			}
		}
		// Increment and add fill edges.
		var bumped []int
		for u, d := range mw {
			if d < weight[u] {
				bumped = append(bumped, u)
			}
		}
		sort.Ints(bumped)
		for _, u := range bumped {
			weight[u]++
			if !g.HasEdge(u, v) {
				a, b := u, v
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
	return atoms.Triangulation{Order: order, Fill: fill}
}

// DecomposeRef splits g into its atoms on the map-backed graph, one
// connected component at a time (Tarjan, Discrete Math. 55, 1985).
func DecomposeRef(g *graph.Graph) atoms.Decomposition {
	var d atoms.Decomposition
	for _, comp := range g.ConnectedComponents() {
		decomposeConnectedRef(g.Induced(comp), &d)
	}
	return d
}

// DecomposeParallelRef is DecomposeRef with the components decomposed on
// at most workers goroutines and merged in component order.
func DecomposeParallelRef(g *graph.Graph, workers int) atoms.Decomposition {
	comps := g.ConnectedComponents()
	parts := make([]atoms.Decomposition, len(comps))
	sem := make(chan struct{}, max(workers, 1))
	var wg sync.WaitGroup
	for i, comp := range comps {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, comp []int) {
			defer wg.Done()
			defer func() { <-sem }()
			decomposeConnectedRef(g.Induced(comp), &parts[i])
		}(i, comp)
	}
	wg.Wait()
	var d atoms.Decomposition
	for _, p := range parts {
		d.Atoms = append(d.Atoms, p.Atoms...)
		d.Separators = append(d.Separators, p.Separators...)
		d.Fill += p.Fill
	}
	return d
}

// decomposeConnectedRef appends the atoms of the connected graph g to d
// using the map-backed graph throughout.
func decomposeConnectedRef(g *graph.Graph, d *atoms.Decomposition) {
	tri := MCSMRef(g)
	d.Fill += len(tri.Fill)

	// H = G + fill.
	h := g.Clone()
	for _, e := range tri.Fill {
		h.AddEdge(e.U, e.V, 0)
	}

	// pos[v] = index of v in the elimination order.
	pos := make(map[int]int, len(tri.Order))
	for i, v := range tri.Order {
		pos[v] = i
	}

	gp := g.Clone() // G', shrinking as components split off
	for i, x := range tri.Order {
		if !gp.HasNode(x) {
			continue // already carved out with an earlier atom's component
		}
		// S = later neighbors of x in H that are still present in G'.
		var s []int
		for _, u := range h.Neighbors(x) {
			if pos[u] > i && gp.HasNode(u) {
				s = append(s, u)
			}
		}
		sort.Ints(s)
		if len(s) == 0 || !g.IsClique(s) {
			continue
		}
		// S is a clique in G; check that removing it separates x from the
		// rest of G'.
		comp := gp.ComponentContaining(x, s)
		if len(comp)+len(s) >= gp.NumNodes() {
			continue // not a proper split: C ∪ S is all of G'
		}
		// S must be a *minimal* separator: every separator vertex needs a
		// G'-neighbor inside the carved component C and another outside
		// C ∪ S. (madj sets of a minimal elimination ordering can be
		// cliques without being minimal separators — e.g. the madj {2,3}
		// of the outer vertex of a bowtie — and splitting on those emits
		// spurious sub-atoms.)
		if !minimalSeparator(gp, s, comp) {
			continue
		}
		atomNodes := append(append([]int{}, comp...), s...)
		sort.Ints(atomNodes)
		d.Atoms = append(d.Atoms, atoms.Atom{Nodes: atomNodes})
		d.Separators = append(d.Separators, append([]int{}, s...))
		for _, c := range comp {
			gp.RemoveNode(c)
		}
	}
	if gp.NumNodes() > 0 {
		d.Atoms = append(d.Atoms, atoms.Atom{Nodes: gp.Nodes()})
	}
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
