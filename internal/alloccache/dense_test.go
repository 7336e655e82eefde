package alloccache

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"parmem/internal/graph"
)

// historicalCanonicalHash is the pre-dense-core CanonicalHash, reproduced
// verbatim: the migration contract is that cache keys are byte-identical
// across it, so entries persisted under old keys stay reachable.
func historicalCanonicalHash(g *graph.Graph) uint64 {
	nodes := g.Nodes()
	order := make([]int, len(nodes))
	copy(order, nodes)
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	label := make(map[int]int, len(order))
	for i, v := range order {
		label[v] = i
	}
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(x int) {
		v := uint64(int64(x))
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	writeInt(len(nodes))
	type edge struct{ u, v, w int }
	var edges []edge
	for _, e := range g.Edges() {
		u, v := label[e.U], label[e.V]
		if u > v {
			u, v = v, u
		}
		edges = append(edges, edge{u, v, e.W})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	for _, e := range edges {
		writeInt(e.u)
		writeInt(e.v)
		writeInt(e.w)
	}
	return h.Sum64()
}

func randomWeightedGraph(r *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(i*5 + 2)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdgeWeight(i*5+2, j*5+2, 1+r.Intn(7))
			}
		}
	}
	return g
}

// TestCanonicalHashKeyStability proves the dense-core hash identical to the
// historical map-graph computation for every random input — routing keys
// survive the migration unchanged.
func TestCanonicalHashKeyStability(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for iter := 0; iter < 150; iter++ {
		g := randomWeightedGraph(r, r.Intn(30), r.Float64()*0.6)
		if got, want := CanonicalHash(g), historicalCanonicalHash(g); got != want {
			t.Fatalf("iter %d: CanonicalHash = %#x, historical %#x\n%s", iter, got, want, g)
		}
	}
}
