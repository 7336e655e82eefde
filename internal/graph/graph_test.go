package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	g := New()
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func complete(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(i)
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	return g
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	g.AddNode(3)
	g.AddNode(3)
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestAddEdgeCreatesEndpoints(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 5)
	if !g.HasNode(1) || !g.HasNode(2) {
		t.Fatal("endpoints not created")
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("edge must be undirected")
	}
	if g.Weight(1, 2) != 5 || g.Weight(2, 1) != 5 {
		t.Fatalf("weight = %d/%d, want 5/5", g.Weight(1, 2), g.Weight(2, 1))
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := New()
	g.AddEdge(7, 7, 1)
	if !g.HasNode(7) {
		t.Fatal("vertex should still be created")
	}
	if g.HasEdge(7, 7) || g.NumEdges() != 0 {
		t.Fatal("self loop must be ignored")
	}
	g.AddEdgeWeight(7, 7, 3)
	if g.Weight(7, 7) != 0 {
		t.Fatal("self loop weight must stay 0")
	}
}

func TestAddEdgeWeightAccumulates(t *testing.T) {
	g := New()
	g.AddEdgeWeight(1, 2, 2)
	g.AddEdgeWeight(2, 1, 3)
	if g.Weight(1, 2) != 5 {
		t.Fatalf("weight = %d, want 5", g.Weight(1, 2))
	}
}

func TestAddEdgeOverwrites(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 2)
	g.AddEdge(1, 2, 9)
	if g.Weight(1, 2) != 9 {
		t.Fatalf("weight = %d, want 9", g.Weight(1, 2))
	}
}

func TestRemoveNode(t *testing.T) {
	g := complete(4)
	g.RemoveNode(2)
	if g.HasNode(2) {
		t.Fatal("node not removed")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (triangle)", g.NumEdges())
	}
	for _, v := range g.Nodes() {
		if g.HasEdge(v, 2) {
			t.Fatalf("dangling edge to removed node from %d", v)
		}
	}
}

func TestRemoveEdge(t *testing.T) {
	g := complete(3)
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge not removed in both directions")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestNodesSorted(t *testing.T) {
	g := New()
	for _, v := range []int{9, 1, 5, 3} {
		g.AddNode(v)
	}
	want := []int{1, 3, 5, 9}
	if got := g.Nodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Nodes = %v, want %v", got, want)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New()
	g.AddEdge(0, 9, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 5, 1)
	want := []int{2, 5, 9}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := complete(4)
	es := g.Edges()
	if len(es) != 6 {
		t.Fatalf("len(Edges) = %d, want 6", len(es))
	}
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if a.U > b.U || (a.U == b.U && a.V >= b.V) {
			t.Fatalf("edges not sorted: %v before %v", a, b)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := complete(3)
	c := g.Clone()
	c.RemoveNode(0)
	if !g.HasNode(0) || g.NumEdges() != 3 {
		t.Fatal("mutating clone changed original")
	}
	if c.HasNode(0) {
		t.Fatal("clone mutation lost")
	}
}

func TestInduced(t *testing.T) {
	g := complete(5)
	sub := g.Induced([]int{0, 2, 4})
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced K3: nodes=%d edges=%d", sub.NumNodes(), sub.NumEdges())
	}
	// Vertex not in g becomes isolated.
	sub2 := g.Induced([]int{0, 99})
	if !sub2.HasNode(99) || sub2.Degree(99) != 0 {
		t.Fatal("missing vertex should be isolated, not absent")
	}
}

func TestInducedPreservesWeights(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 7)
	g.AddEdge(2, 3, 9)
	sub := g.Induced([]int{1, 2})
	if sub.Weight(1, 2) != 7 {
		t.Fatalf("weight = %d, want 7", sub.Weight(1, 2))
	}
	if sub.HasNode(3) {
		t.Fatal("vertex 3 must not be present")
	}
}

func TestIsClique(t *testing.T) {
	g := complete(4)
	if !g.IsClique([]int{0, 1, 2, 3}) {
		t.Fatal("K4 is a clique")
	}
	if !g.IsClique(nil) || !g.IsClique([]int{2}) {
		t.Fatal("empty set and singleton are cliques")
	}
	g.RemoveEdge(0, 3)
	if g.IsClique([]int{0, 1, 2, 3}) {
		t.Fatal("missing edge: not a clique")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(10, 11, 1)
	g.AddNode(20)
	comps := g.ConnectedComponents()
	want := [][]int{{0, 1, 2}, {10, 11}, {20}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
}

func TestComponentContaining(t *testing.T) {
	// Path 0-1-2-3-4 with separator {2}.
	g := path(5)
	left := g.ComponentContaining(0, []int{2})
	if !reflect.DeepEqual(left, []int{0, 1}) {
		t.Fatalf("left = %v, want [0 1]", left)
	}
	right := g.ComponentContaining(4, []int{2})
	if !reflect.DeepEqual(right, []int{3, 4}) {
		t.Fatalf("right = %v, want [3 4]", right)
	}
	if g.ComponentContaining(2, []int{2}) != nil {
		t.Fatal("separator vertex has no component")
	}
	if g.ComponentContaining(99, nil) != nil {
		t.Fatal("absent vertex has no component")
	}
}

func TestIsSeparator(t *testing.T) {
	g := path(5)
	if !g.IsSeparator([]int{2}) {
		t.Fatal("{2} separates a path")
	}
	if g.IsSeparator([]int{0}) {
		t.Fatal("an endpoint does not separate a path")
	}
	if !g.IsSeparator([]int{1, 2, 3}) {
		t.Fatal("{1,2,3} leaves 0 and 4 disconnected; it is a separator")
	}
	if g.IsSeparator([]int{0, 1, 2, 3}) {
		t.Fatal("only one vertex left outside; not a separator")
	}
	k := complete(4)
	if k.IsSeparator([]int{0}) || k.IsSeparator([]int{0, 1}) {
		t.Fatal("complete graphs have no separators")
	}
}

func TestStringDeterministic(t *testing.T) {
	g := complete(3)
	if g.String() != g.String() {
		t.Fatal("String must be deterministic")
	}
}

// randomGraph builds a reproducible random graph for property tests.
func randomGraph(r *rand.Rand, n int, p float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(i)
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i, j, 1+r.Intn(5))
			}
		}
	}
	return g
}

// Property: components partition the vertex set.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(30), r.Float64()*0.3)
		seen := map[int]int{}
		for _, comp := range g.ConnectedComponents() {
			for _, v := range comp {
				seen[v]++
			}
		}
		if len(seen) != g.NumNodes() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Induced(Nodes()) is the identity up to equality of structure.
func TestInducedIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(20), r.Float64()*0.5)
		sub := g.Induced(g.Nodes())
		if sub.NumNodes() != g.NumNodes() || sub.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if sub.Weight(e.U, e.V) != e.W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: degree equals len(Neighbors) and the sum of degrees is 2|E|.
func TestHandshakeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(25), r.Float64()*0.4)
		sum := 0
		for _, v := range g.Nodes() {
			if g.Degree(v) != len(g.Neighbors(v)) {
				return false
			}
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a separator found by IsSeparator really splits the vertex set:
// some outside vertex is unreachable from another.
func TestSeparatorSplitsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 4+r.Intn(15), 0.25)
		nodes := g.Nodes()
		sep := nodes[:1+r.Intn(2)]
		isSep := g.IsSeparator(sep)
		// Recompute directly: collect components of G minus sep.
		inSep := map[int]bool{}
		for _, s := range sep {
			inSep[s] = true
		}
		var outside []int
		for _, v := range nodes {
			if !inSep[v] {
				outside = append(outside, v)
			}
		}
		if len(outside) <= 1 {
			return !isSep
		}
		comp := g.ComponentContaining(outside[0], sep)
		return isSep == (len(comp) < len(outside))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentContainingSorted(t *testing.T) {
	g := New()
	g.AddEdge(5, 3, 1)
	g.AddEdge(3, 9, 1)
	comp := g.ComponentContaining(9, nil)
	if !sort.IntsAreSorted(comp) {
		t.Fatalf("component %v not sorted", comp)
	}
}
