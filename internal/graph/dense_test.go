package graph

import (
	"math/rand"
	"testing"
)

// randomIDGraph builds a random graph over n vertices with non-contiguous,
// shuffled ids and edge probability p, exercising the id↔index remapping.
func randomIDGraph(r *rand.Rand, n int, p float64) *Graph {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i*3 + 7 // non-contiguous
	}
	r.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	g := New()
	for _, v := range ids {
		g.AddNode(v)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdgeWeight(ids[i], ids[j], 1+r.Intn(5))
			}
		}
	}
	return g
}

// TestDenseMatchesGraph fuzzes FromGraph: every Dense accessor must agree
// with the mutable Graph it was built from. These sizes stay under the
// bitset threshold; TestDenseBinarySearchPath covers the CSR fallback.
func TestDenseMatchesGraph(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		n := r.Intn(40)
		g := randomIDGraph(r, n, r.Float64()*0.6)
		d := FromGraph(g)

		nodes := g.Nodes()
		if got := d.IDs(); len(got) != len(nodes) {
			t.Fatalf("iter %d: N = %d, want %d", iter, len(got), len(nodes))
		}
		for i, v := range nodes {
			if d.ID(int32(i)) != v {
				t.Fatalf("iter %d: ID(%d) = %d, want %d", iter, i, d.ID(int32(i)), v)
			}
			if d.Index(v) != int32(i) {
				t.Fatalf("iter %d: Index(%d) = %d, want %d", iter, v, d.Index(v), i)
			}
		}
		if d.NumEdges() != g.NumEdges() {
			t.Fatalf("iter %d: NumEdges = %d, want %d", iter, d.NumEdges(), g.NumEdges())
		}
		for _, v := range nodes {
			i := d.Index(v)
			if d.Deg(i) != g.Degree(v) {
				t.Fatalf("iter %d: Deg(%d) = %d, want %d", iter, v, d.Deg(i), g.Degree(v))
			}
			nbrs := g.Neighbors(v)
			row := d.Row(i)
			if len(row) != len(nbrs) {
				t.Fatalf("iter %d: Row(%d) has %d entries, want %d", iter, v, len(row), len(nbrs))
			}
			for j, u := range nbrs {
				if d.ID(row[j]) != u {
					t.Fatalf("iter %d: Row(%d)[%d] = id %d, want %d", iter, v, j, d.ID(row[j]), u)
				}
				if w := d.WeightRow(i)[j]; int(w) != g.Weight(v, u) {
					t.Fatalf("iter %d: weight(%d,%d) = %d, want %d", iter, v, u, w, g.Weight(v, u))
				}
			}
		}
		// Pairwise HasEdgeIdx, and Index of absent ids.
		for _, u := range nodes {
			for _, v := range nodes {
				ui, vi := d.Index(u), d.Index(v)
				if d.HasEdgeIdx(ui, vi) != g.HasEdge(u, v) {
					t.Fatalf("iter %d: HasEdgeIdx(%d,%d) = %v, want %v", iter, u, v, d.HasEdgeIdx(ui, vi), g.HasEdge(u, v))
				}
			}
		}
		for _, v := range []int{-1, 8, 999999} {
			if d.Index(v) != -1 {
				t.Fatalf("iter %d: Index(%d) = %d for an absent id", iter, v, d.Index(v))
			}
		}
	}
}

// TestDenseBinarySearchPath checks HasEdgeIdx beyond the bitset threshold,
// where adjacency probes binary-search the CSR rows instead.
func TestDenseBinarySearchPath(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := DenseBitsetMaxN + 50
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(i)
	}
	type pair struct{ u, v int }
	var edges []pair
	for i := 0; i < 4*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		g.AddEdge(u, v, 1)
		if u != v {
			edges = append(edges, pair{u, v})
		}
	}
	d := FromGraph(g)
	if d.N() != n {
		t.Fatalf("N = %d, want %d", d.N(), n)
	}
	for _, e := range edges {
		if !d.HasEdgeIdx(d.Index(e.u), d.Index(e.v)) || !d.HasEdgeIdx(d.Index(e.v), d.Index(e.u)) {
			t.Fatalf("edge {%d,%d} missing on binary-search path", e.u, e.v)
		}
	}
	for i := 0; i < 4*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if d.HasEdgeIdx(d.Index(u), d.Index(v)) != g.HasEdge(u, v) {
			t.Fatalf("HasEdgeIdx(%d,%d) disagrees with Graph", u, v)
		}
	}
}

func TestNodesNeighborsAppend(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomIDGraph(r, 25, 0.3)
	buf := make([]int, 0, 64)
	for _, v := range g.Nodes() {
		want := g.Neighbors(v)
		nb := g.NeighborsAppend(v, buf[:0])
		if len(nb) != len(want) {
			t.Fatalf("NeighborsAppend(%d): %d entries, want %d", v, len(nb), len(want))
		}
		for i := range want {
			if nb[i] != want[i] {
				t.Fatalf("NeighborsAppend(%d)[%d] = %d, want %d", v, i, nb[i], want[i])
			}
		}
	}
}

// TestNumEdgesCounter cross-checks the maintained edge counter against a
// recount through every mutator.
func TestNumEdgesCounter(t *testing.T) {
	recount := func(g *Graph) int { return len(g.Edges()) }
	r := rand.New(rand.NewSource(4))
	g := New()
	for step := 0; step < 2000; step++ {
		u, v := r.Intn(20), r.Intn(20)
		switch r.Intn(5) {
		case 0:
			g.AddEdge(u, v, 1)
		case 1:
			g.AddEdgeWeight(u, v, 2)
		case 2:
			g.RemoveEdge(u, v)
		case 3:
			g.AddNode(u)
		default:
			g.RemoveNode(u)
		}
		if g.NumEdges() != recount(g) {
			t.Fatalf("step %d: NumEdges = %d, recount %d", step, g.NumEdges(), recount(g))
		}
	}
	c := g.Clone()
	if c.NumEdges() != g.NumEdges() {
		t.Fatalf("Clone: NumEdges = %d, want %d", c.NumEdges(), g.NumEdges())
	}
}

// BenchmarkDenseVsMap compares the two adjacency representations on the
// read pattern the hot phases use: full neighborhood sweeps plus pairwise
// membership probes.
func BenchmarkDenseVsMap(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	g := randomIDGraph(r, 300, 0.1)
	d := FromGraph(g)
	nodes := g.Nodes()

	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		sum := 0
		for i := 0; i < b.N; i++ {
			for _, v := range nodes {
				for _, u := range g.Neighbors(v) {
					sum += g.Weight(v, u)
				}
			}
		}
		sink = sum
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		sum := 0
		for i := 0; i < b.N; i++ {
			for vi := int32(0); int(vi) < d.N(); vi++ {
				for j := range d.Row(vi) {
					sum += int(d.WeightRow(vi)[j])
				}
			}
		}
		sink = sum
	})
}

var sink int
