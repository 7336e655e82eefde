package coloring

import (
	"math/rand"
	"testing"

	"parmem/internal/graph"
)

func randomConflictGraph(r *rand.Rand, n int, p float64, maxW int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(i*3 + 1) // non-contiguous ids
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdgeWeight(i*3+1, j*3+1, 1+r.Intn(maxW))
			}
		}
	}
	return g
}

// benchColoringGraph is a large synthetic conflict graph whose scale makes
// the per-iteration allocation differences between the two backends visible.
func benchColoringGraph() *graph.Graph {
	r := rand.New(rand.NewSource(21))
	return randomConflictGraph(r, 400, 0.06, 3)
}

func BenchmarkColoringDense(b *testing.B) {
	d := graph.FromGraph(benchColoringGraph())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := GuptaSoffa(d, Options{K: 8})
		if len(res.Assign) == 0 {
			b.Fatal("empty result")
		}
	}
}
