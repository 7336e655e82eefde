package atoms

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"parmem/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func cycleGraph(n int) *graph.Graph {
	g := pathGraph(n)
	g.AddEdge(n-1, 0, 1)
	return g
}

func completeGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(i)
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	return g
}

// isChordalVia checks that order is a perfect elimination ordering of g:
// for every vertex, its later-ordered neighbors form a clique.
func isChordalVia(g *graph.Graph, order []int) bool {
	pos := map[int]int{}
	for i, v := range order {
		pos[v] = i
	}
	for i, v := range order {
		var later []int
		for _, u := range g.Neighbors(v) {
			if pos[u] > i {
				later = append(later, u)
			}
		}
		if !g.IsClique(later) {
			return false
		}
	}
	return true
}

func withFill(g *graph.Graph, tri Triangulation) *graph.Graph {
	h := g.Clone()
	for _, e := range tri.Fill {
		h.AddEdge(e.U, e.V, 0)
	}
	return h
}

func TestMCSMOrderIsPermutation(t *testing.T) {
	g := cycleGraph(6)
	tri := MCSM(graph.FromGraph(g))
	if len(tri.Order) != 6 {
		t.Fatalf("order length = %d", len(tri.Order))
	}
	seen := map[int]bool{}
	for _, v := range tri.Order {
		if seen[v] {
			t.Fatalf("duplicate vertex %d in order", v)
		}
		seen[v] = true
	}
}

func TestMCSMChordalInputNoFill(t *testing.T) {
	// A chordal graph (two triangles sharing an edge) needs no fill.
	g := graph.New()
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	tri := MCSM(graph.FromGraph(g))
	if len(tri.Fill) != 0 {
		t.Fatalf("chordal input should need no fill, got %v", tri.Fill)
	}
	if !isChordalVia(g, tri.Order) {
		t.Fatal("order is not a perfect elimination ordering")
	}
}

func TestMCSMCycleFill(t *testing.T) {
	// C4 needs exactly one chord to triangulate minimally.
	tri := MCSM(graph.FromGraph(cycleGraph(4)))
	if len(tri.Fill) != 1 {
		t.Fatalf("C4 minimal fill = %d edges, want 1 (%v)", len(tri.Fill), tri.Fill)
	}
	// C5 needs exactly two chords.
	tri5 := MCSM(graph.FromGraph(cycleGraph(5)))
	if len(tri5.Fill) != 2 {
		t.Fatalf("C5 minimal fill = %d edges, want 2", len(tri5.Fill))
	}
}

func TestMCSMTriangulationIsChordal(t *testing.T) {
	for n := 3; n <= 9; n++ {
		g := cycleGraph(n)
		tri := MCSM(graph.FromGraph(g))
		h := withFill(g, tri)
		if !isChordalVia(h, tri.Order) {
			t.Fatalf("C%d: H=G+fill not chordal via returned order", n)
		}
	}
}

func TestMCSMDeterministic(t *testing.T) {
	g := cycleGraph(7)
	a := MCSM(graph.FromGraph(g))
	b := MCSM(graph.FromGraph(g))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("MCSM must be deterministic")
	}
}

func TestDecomposeEmpty(t *testing.T) {
	d := Decompose(graph.FromGraph(graph.New()), 1)
	if len(d.Atoms) != 0 {
		t.Fatalf("empty graph atoms = %d", len(d.Atoms))
	}
}

func TestDecomposeComplete(t *testing.T) {
	d := Decompose(graph.FromGraph(completeGraph(5)), 1)
	if len(d.Atoms) != 1 {
		t.Fatalf("complete graph is one atom, got %d", len(d.Atoms))
	}
	if len(d.Atoms[0].Nodes) != 5 {
		t.Fatalf("atom nodes = %v", d.Atoms[0].Nodes)
	}
}

func TestDecomposeCycleNoSeparator(t *testing.T) {
	// A chordless cycle has no clique separator: single atom.
	d := Decompose(graph.FromGraph(cycleGraph(5)), 1)
	if len(d.Atoms) != 1 {
		t.Fatalf("C5 should be a single atom, got %d: %v", len(d.Atoms), d.Atoms)
	}
}

func TestDecomposePathIntoEdges(t *testing.T) {
	// Every interior vertex of a path is a (singleton) clique separator, so
	// the atoms are exactly the edges.
	d := Decompose(graph.FromGraph(pathGraph(5)), 1)
	if len(d.Atoms) != 4 {
		t.Fatalf("path atoms = %d, want 4: %+v", len(d.Atoms), d.Atoms)
	}
	for _, a := range d.Atoms {
		if len(a.Nodes) != 2 {
			t.Fatalf("path atom %v is not an edge", a.Nodes)
		}
	}
}

func TestDecomposeDiamond(t *testing.T) {
	// Two triangles sharing edge {1,2}: separator {1,2}, atoms {0,1,2} and
	// {1,2,3}.
	g := graph.New()
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	d := Decompose(graph.FromGraph(g), 1)
	if len(d.Atoms) != 2 {
		t.Fatalf("diamond atoms = %d, want 2: %+v", len(d.Atoms), d.Atoms)
	}
	var sets [][]int
	for _, a := range d.Atoms {
		sets = append(sets, a.Nodes)
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i][0] < sets[j][0] })
	if !reflect.DeepEqual(sets[0], []int{0, 1, 2}) || !reflect.DeepEqual(sets[1], []int{1, 2, 3}) {
		t.Fatalf("atoms = %v", sets)
	}
	if len(d.Separators) != 1 || !reflect.DeepEqual(d.Separators[0], []int{1, 2}) {
		t.Fatalf("separators = %v, want [[1 2]]", d.Separators)
	}
}

func TestDecomposeDisconnected(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1, 1)
	g.AddEdge(10, 11, 1)
	g.AddEdge(11, 12, 1)
	g.AddEdge(10, 12, 1)
	g.AddNode(20)
	d := Decompose(graph.FromGraph(g), 1)
	if len(d.Atoms) != 3 {
		t.Fatalf("atoms = %d, want 3: %+v", len(d.Atoms), d.Atoms)
	}
	total := 0
	for _, a := range d.Atoms {
		total += len(a.Nodes)
	}
	if total != 6 {
		t.Fatalf("total atom vertices = %d, want 6 (no sharing across components)", total)
	}
}

func TestDecomposeCutVertex(t *testing.T) {
	// Two triangles joined at a single vertex 2 (bowtie): cut vertex is a
	// clique separator.
	g := graph.New()
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(2, 4, 1)
	g.AddEdge(3, 4, 1)
	d := Decompose(graph.FromGraph(g), 1)
	if len(d.Atoms) != 2 {
		t.Fatalf("bowtie atoms = %d, want 2: %+v", len(d.Atoms), d.Atoms)
	}
	for _, a := range d.Atoms {
		if len(a.Nodes) != 3 {
			t.Fatalf("bowtie atom %v should be a triangle", a.Nodes)
		}
		has2 := false
		for _, v := range a.Nodes {
			has2 = has2 || v == 2
		}
		if !has2 {
			t.Fatalf("cut vertex 2 must be in every atom, got %v", a.Nodes)
		}
	}
}

func TestAtomGraphPreservesWeights(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1, 7)
	g.AddEdge(1, 2, 9)
	d := graph.FromGraph(g)
	for _, a := range Decompose(d, 1).Atoms {
		idx := make([]int32, len(a.Nodes))
		for i, v := range a.Nodes {
			idx[i] = d.Index(v)
		}
		sub := d.Sub(idx, nil)
		for i := int32(0); int(i) < sub.N(); i++ {
			for j, u := range sub.Row(i) {
				if w := int(sub.WeightRow(i)[j]); g.Weight(sub.ID(i), sub.ID(u)) != w {
					t.Fatalf("atom edge {%d,%d} weight %d mismatch", sub.ID(i), sub.ID(u), w)
				}
			}
		}
	}
}

func randomGraph(r *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(i)
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i, j, 1)
			}
		}
	}
	return g
}

// hasCliqueSeparator brute-forces whether g has any clique separator, for
// validating that atoms are indecomposable. Exponential; small graphs only.
func hasCliqueSeparator(g *graph.Graph) bool {
	nodes := g.Nodes()
	n := len(nodes)
	for mask := 0; mask < 1<<n; mask++ {
		var s []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, nodes[i])
			}
		}
		if len(s) >= n-1 {
			continue
		}
		if g.IsClique(s) && g.IsSeparator(s) {
			return true
		}
	}
	return false
}

// Property: atoms cover all vertices and edges, and no atom has a clique
// separator (checked by brute force on small random graphs).
func TestDecomposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		g := randomGraph(r, n, 0.2+r.Float64()*0.4)
		d := Decompose(graph.FromGraph(g), 1)

		covered := map[int]bool{}
		for _, a := range d.Atoms {
			for _, v := range a.Nodes {
				covered[v] = true
			}
		}
		if len(covered) != g.NumNodes() {
			t.Logf("seed %d: vertex cover %d != %d", seed, len(covered), g.NumNodes())
			return false
		}
		for _, e := range g.Edges() {
			found := false
			for _, a := range d.Atoms {
				if g.Induced(a.Nodes).HasEdge(e.U, e.V) {
					found = true
					break
				}
			}
			if !found {
				t.Logf("seed %d: edge %v missing from all atoms", seed, e)
				return false
			}
		}
		for _, a := range d.Atoms {
			if hasCliqueSeparator(g.Induced(a.Nodes)) {
				t.Logf("seed %d: atom %v still has a clique separator", seed, a.Nodes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the MCS-M triangulation is chordal via its own order.
func TestMCSMChordalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 3+r.Intn(12), 0.15+r.Float64()*0.4)
		tri := MCSM(graph.FromGraph(g))
		return isChordalVia(withFill(g, tri), tri.Order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
