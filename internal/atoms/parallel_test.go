package atoms

import (
	"math/rand"
	"reflect"
	"testing"

	"parmem/internal/graph"
)

// multiComponentGraph builds nc disjoint random components so the
// parallel decomposition has real fan-out.
func multiComponentGraph(r *rand.Rand, nc int) *graph.Graph {
	g := graph.New()
	base := 0
	for c := 0; c < nc; c++ {
		n := 3 + r.Intn(10)
		sub := randomGraph(r, n, 0.2+r.Float64()*0.4)
		for _, v := range sub.Nodes() {
			g.AddNode(base + v)
		}
		for _, e := range sub.Edges() {
			g.AddEdgeWeight(base+e.U, base+e.V, e.W)
		}
		base += n
	}
	return g
}

// TestDecomposeParallelMatchesSequential checks the determinism contract:
// Decompose must return the same decomposition for any worker count, and
// DecomposeParallel the same on the map graph, including single-component
// and empty graphs.
func TestDecomposeParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	graphs := []*graph.Graph{
		graph.New(),
		pathGraph(6),
		completeGraph(5),
	}
	for i := 0; i < 25; i++ {
		graphs = append(graphs, multiComponentGraph(r, 1+r.Intn(6)))
	}
	for i, g := range graphs {
		d := graph.FromGraph(g)
		want := Decompose(d, 1)
		for _, workers := range []int{1, 2, 3, 8} {
			got := Decompose(d, workers)
			if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(want, DecomposeParallel(g, workers)) {
				t.Errorf("graph %d, workers=%d: parallel decomposition differs from sequential", i, workers)
			}
		}
	}
}
