package coloring

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parmem/internal/conflict"
	"parmem/internal/graph"
)

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

func cycleGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
	}
	return g
}

func TestGuptaSoffaTriangle(t *testing.T) {
	g := completeGraph(3)
	res := GuptaSoffa(graph.FromGraph(g), Options{K: 3})
	if len(res.Unassigned) != 0 {
		t.Fatalf("triangle with 3 modules: unassigned = %v", res.Unassigned)
	}
	if err := CheckProper(g, res.Assign); err != nil {
		t.Fatal(err)
	}
}

func TestGuptaSoffaK4With3Modules(t *testing.T) {
	g := completeGraph(4)
	res := GuptaSoffa(graph.FromGraph(g), Options{K: 3})
	if len(res.Unassigned) != 1 {
		t.Fatalf("K4/3 modules: unassigned = %v, want exactly 1", res.Unassigned)
	}
	if err := CheckProper(g, res.Assign); err != nil {
		t.Fatal(err)
	}
}

func TestGuptaSoffaK5With3Modules(t *testing.T) {
	g := completeGraph(5)
	res := GuptaSoffa(graph.FromGraph(g), Options{K: 3})
	if len(res.Unassigned) != 2 {
		t.Fatalf("K5/3 modules: unassigned = %v, want exactly 2", res.Unassigned)
	}
}

// TestFigure1 reproduces paper Fig. 1: instructions {V1 V2 V4}, {V2 V3 V5},
// {V2 V3 V4} over three modules admit a conflict-free assignment without any
// duplication.
func TestFigure1(t *testing.T) {
	instrs := []conflict.Instruction{{1, 2, 4}, {2, 3, 5}, {2, 3, 4}}
	g := conflict.Build(instrs)
	res := GuptaSoffa(graph.FromGraph(g), Options{K: 3})
	if len(res.Unassigned) != 0 {
		t.Fatalf("Fig. 1 needs no duplication, but unassigned = %v", res.Unassigned)
	}
	if err := CheckProper(g, res.Assign); err != nil {
		t.Fatal(err)
	}
	// Every instruction must see its operands in pairwise-distinct modules.
	for _, in := range instrs {
		seen := map[int]int{}
		for _, v := range in {
			m := res.Assign[v]
			if prev, clash := seen[m]; clash {
				t.Fatalf("instruction %v: values %d and %d share module %d", in, prev, v, m)
			}
			seen[m] = v
		}
	}
}

func TestGuptaSoffaLowDegreeAlwaysColored(t *testing.T) {
	// Star: center degree 5, leaves degree 1. With k=2 everything colors.
	g := graph.New()
	for leaf := 1; leaf <= 5; leaf++ {
		g.AddEdge(0, leaf, 1)
	}
	res := GuptaSoffa(graph.FromGraph(g), Options{K: 2})
	if len(res.Unassigned) != 0 {
		t.Fatalf("star is 2-colorable: unassigned = %v", res.Unassigned)
	}
	if err := CheckProper(g, res.Assign); err != nil {
		t.Fatal(err)
	}
}

func TestGuptaSoffaPrecoloredRespected(t *testing.T) {
	g := completeGraph(3)
	pre := map[int]int{0: 2, 1: 0}
	res := GuptaSoffa(graph.FromGraph(g), Options{K: 3, Precolored: pre})
	if res.Assign[0] != 2 || res.Assign[1] != 0 {
		t.Fatalf("precolored moved: %v", res.Assign)
	}
	if res.Assign[2] != 1 {
		t.Fatalf("node 2 should take the only free module 1, got %d", res.Assign[2])
	}
}

func TestGuptaSoffaPrecoloredAbsentNodeIgnored(t *testing.T) {
	g := completeGraph(2)
	res := GuptaSoffa(graph.FromGraph(g), Options{K: 2, Precolored: map[int]int{99: 1}})
	if _, ok := res.Assign[99]; ok {
		t.Fatal("precolored node absent from graph must be ignored")
	}
	if len(res.Assign) != 2 {
		t.Fatalf("assign = %v", res.Assign)
	}
}

func TestGuptaSoffaPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("K=0", func() { GuptaSoffa(graph.FromGraph(graph.New()), Options{K: 0}) })
	g := completeGraph(2)
	mustPanic("precolored out of range", func() {
		GuptaSoffa(graph.FromGraph(g), Options{K: 2, Precolored: map[int]int{0: 5}})
	})
}

func TestGuptaSoffaEmptyGraph(t *testing.T) {
	res := GuptaSoffa(graph.FromGraph(graph.New()), Options{K: 4})
	if len(res.Assign) != 0 || len(res.Unassigned) != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

func TestGuptaSoffaDeterministic(t *testing.T) {
	g := cycleGraph(9)
	g.AddEdge(0, 4, 3)
	g.AddEdge(2, 7, 2)
	a := GuptaSoffa(graph.FromGraph(g), Options{K: 3})
	b := GuptaSoffa(graph.FromGraph(g), Options{K: 3})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GuptaSoffa must be deterministic")
	}
}

func TestCheckProper(t *testing.T) {
	g := completeGraph(2)
	if err := CheckProper(g, map[int]int{0: 0, 1: 0}); err == nil {
		t.Fatal("want error for improper coloring")
	}
	if err := CheckProper(g, map[int]int{0: 0, 1: 1}); err != nil {
		t.Fatalf("proper coloring rejected: %v", err)
	}
	// Partial assignments are fine.
	if err := CheckProper(g, map[int]int{0: 0}); err != nil {
		t.Fatalf("partial coloring rejected: %v", err)
	}
}

func randomGraph(r *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(i)
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i, j, 1+r.Intn(4))
			}
		}
	}
	return g
}

// Property: the heuristic result is always a proper partial coloring, the
// colored and removed sets partition V, and nodes of degree < k are never
// removed.
func TestGuptaSoffaInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		g := randomGraph(r, 3+r.Intn(15), 0.2+r.Float64()*0.5)
		res := GuptaSoffa(graph.FromGraph(g), Options{K: k})
		if err := CheckProper(g, res.Assign); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(res.Assign)+len(res.Unassigned) != g.NumNodes() {
			t.Logf("seed %d: partition broken", seed)
			return false
		}
		for _, v := range res.Unassigned {
			if _, ok := res.Assign[v]; ok {
				t.Logf("seed %d: node %d both assigned and unassigned", seed, v)
				return false
			}
			if g.Degree(v) < k {
				t.Logf("seed %d: low-degree node %d removed", seed, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: precolored nodes survive in the output with their exact module.
func TestPrecoloredSurvivesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 3 + r.Intn(3)
		g := randomGraph(r, 5+r.Intn(10), 0.3)
		nodes := g.Nodes()
		pre := map[int]int{nodes[0]: r.Intn(k)}
		res := GuptaSoffa(graph.FromGraph(g), Options{K: k, Precolored: pre})
		return res.Assign[nodes[0]] == pre[nodes[0]]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
