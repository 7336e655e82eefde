// Package graph provides deterministic undirected graphs with integer
// vertices and integer edge weights, in two representations.
//
// Dense, the frozen CSR-plus-bitset snapshot, is the only graph the
// assignment engine runs on: the access-conflict graph (internal/conflict)
// is built straight into one, and the clique-separator decomposition
// (internal/atoms) and the coloring heuristic (internal/coloring) work on
// its induced sub-snapshots. Graph, the mutable map-backed form, is the
// representation of the reference implementations in internal/oracle and
// of the graph-taking entry points the benchmark compiles against. All
// iteration orders are deterministic (sorted by vertex id) so that every
// stage of the compiler is reproducible run to run.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is an undirected graph over int vertex ids with int edge weights.
// The zero value is not ready to use; call New.
type Graph struct {
	adj map[int]map[int]int // adj[u][v] = weight of edge {u,v}
	m   int                 // number of undirected edges, maintained by every mutator
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[int]map[int]int)}
}

// AddNode ensures vertex v exists. Adding an existing vertex is a no-op.
func (g *Graph) AddNode(v int) {
	if _, ok := g.adj[v]; !ok {
		g.adj[v] = make(map[int]int)
	}
}

// HasNode reports whether vertex v is present.
func (g *Graph) HasNode(v int) bool {
	_, ok := g.adj[v]
	return ok
}

// AddEdge inserts the undirected edge {u,v} with weight w, creating the
// endpoints as needed. If the edge exists its weight is overwritten.
// Self-loops are ignored: a value never conflicts with itself because a
// single fetch serves every use of it inside one instruction.
func (g *Graph) AddEdge(u, v, w int) {
	if u == v {
		g.AddNode(u)
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	if _, ok := g.adj[u][v]; !ok {
		g.m++
	}
	g.adj[u][v] = w
	g.adj[v][u] = w
}

// AddEdgeWeight adds w to the weight of edge {u,v}, creating the edge with
// weight w if absent. It is the natural operation for accumulating
// conf(ni,nj) counts.
func (g *Graph) AddEdgeWeight(u, v, w int) {
	if u == v {
		g.AddNode(u)
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	if _, ok := g.adj[u][v]; !ok {
		g.m++
	}
	g.adj[u][v] += w
	g.adj[v][u] += w
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}

// Weight returns the weight of edge {u,v}, or 0 if the edge is absent.
func (g *Graph) Weight(u, v int) int {
	return g.adj[u][v]
}

// RemoveNode deletes vertex v and all incident edges.
func (g *Graph) RemoveNode(v int) {
	for u := range g.adj[v] {
		delete(g.adj[u], v)
	}
	g.m -= len(g.adj[v])
	delete(g.adj, v)
}

// RemoveEdge deletes the undirected edge {u,v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	if _, ok := g.adj[u][v]; !ok {
		return
	}
	g.m--
	delete(g.adj[u], v)
	delete(g.adj[v], u)
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges. It is a maintained
// counter, not a recount, so callers may consult it per iteration for free.
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Nodes returns all vertex ids in ascending order.
func (g *Graph) Nodes() []int {
	out := make([]int, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Neighbors returns the neighbors of v in ascending order.
func (g *Graph) Neighbors(v int) []int {
	return g.NeighborsAppend(v, nil)
}

// NeighborsAppend appends the neighbors of v in ascending order to buf and
// returns the extended slice; the reusable-buffer counterpart of Neighbors.
func (g *Graph) NeighborsAppend(v int, buf []int) []int {
	base := len(buf)
	for u := range g.adj[v] {
		buf = append(buf, u)
	}
	sort.Ints(buf[base:])
	return buf
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V, W int
}

// Edges returns all edges sorted by (U,V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u, nbrs := range g.adj {
		for v, w := range nbrs {
			if u < v {
				out = append(out, Edge{U: u, V: v, W: w})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for u, nbrs := range g.adj {
		m := make(map[int]int, len(nbrs))
		for v, w := range nbrs {
			m[v] = w
		}
		c.adj[u] = m
	}
	c.m = g.m
	return c
}

// Induced returns the subgraph induced by the given vertex set. Vertices in
// the set that are absent from g are created as isolated vertices, which
// keeps induced subgraphs usable as coloring inputs even for values that
// never conflict.
func (g *Graph) Induced(vs []int) *Graph {
	in := make(map[int]bool, len(vs))
	for _, v := range vs {
		in[v] = true
	}
	sub := New()
	for _, v := range vs {
		sub.AddNode(v)
		for u, w := range g.adj[v] {
			if in[u] && v < u {
				sub.AddEdge(v, u, w)
			}
		}
	}
	return sub
}

// IsClique reports whether every pair of the given vertices is adjacent in g.
// The empty set and singletons are cliques.
func (g *Graph) IsClique(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted ascending, ordered by their smallest vertex.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make(map[int]bool, len(g.adj))
	var comps [][]int
	var stack, nbuf []int
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		var comp []int
		stack = append(stack[:0], start)
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			nbuf = g.NeighborsAppend(v, nbuf[:0])
			for _, u := range nbuf {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// ComponentContaining returns the sorted vertex set of the connected
// component of g that contains v, after conceptually deleting the vertices
// in the separator set. If v is in the separator or absent, it returns nil.
func (g *Graph) ComponentContaining(v int, separator []int) []int {
	sep := make(map[int]bool, len(separator))
	for _, s := range separator {
		sep[s] = true
	}
	if sep[v] || !g.HasNode(v) {
		return nil
	}
	seen := map[int]bool{v: true}
	stack := []int{v}
	var comp, nbuf []int
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		comp = append(comp, x)
		nbuf = g.NeighborsAppend(x, nbuf[:0])
		for _, u := range nbuf {
			if !seen[u] && !sep[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	sort.Ints(comp)
	return comp
}

// IsSeparator reports whether deleting the vertex set sep disconnects g or
// leaves a vertex isolated from some other vertex. A set is not a separator
// of a graph that has at most one vertex outside the set.
func (g *Graph) IsSeparator(sep []int) bool {
	in := make(map[int]bool, len(sep))
	for _, s := range sep {
		in[s] = true
	}
	var outside []int
	for v := range g.adj {
		if !in[v] {
			outside = append(outside, v)
		}
	}
	if len(outside) <= 1 {
		return false
	}
	comp := g.ComponentContaining(outside[0], sep)
	return len(comp) < len(outside)
}

// String renders the graph as "v: n1 n2 ..." lines for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, v := range g.Nodes() {
		fmt.Fprintf(&b, "%d:", v)
		for _, u := range g.Neighbors(v) {
			fmt.Fprintf(&b, " %d(w%d)", u, g.adj[v][u])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
