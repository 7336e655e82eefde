package oracle

import (
	"math/rand"
	"testing"

	"parmem/internal/coloring"
	"parmem/internal/duplication"
	"parmem/internal/graph"
)

// The map-backed halves of the dense-versus-map ablation benchmarks. The
// dense halves (BenchmarkColoringDense, BenchmarkDuplicationDense) live
// with their code; both sides build the same inputs from the same seeds,
// so the rows in BENCH_parmem.json compare like with like.

// benchColoringGraph is the 400-node graph of BenchmarkColoringDense.
func benchColoringGraph() *graph.Graph {
	r := rand.New(rand.NewSource(21))
	const n, p, maxW = 400, 0.06, 3
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(i*3 + 1)
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

func BenchmarkColoringMap(b *testing.B) {
	g := benchColoringGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := GuptaSoffaMap(g, coloring.Options{K: 8})
		if len(res.Assign) == 0 {
			b.Fatal("empty result")
		}
	}
}

// benchSDRInputs is the SDR probe workload of BenchmarkDuplicationDense.
func benchSDRInputs() ([][]int, duplication.Copies) {
	r := rand.New(rand.NewSource(32))
	const k = 8
	copies := make(duplication.Copies, 256)
	for v := 0; v < 256; v++ {
		var s duplication.ModSet
		for m := 0; m < k; m++ {
			if r.Intn(4) == 0 {
				s = s.Add(m)
			}
		}
		if s == 0 {
			s = s.Add(r.Intn(k))
		}
		copies[v] = s
	}
	sets := make([][]int, 512)
	for i := range sets {
		ops := make([]int, k)
		for j := range ops {
			ops[j] = r.Intn(256)
		}
		sets[i] = ops
	}
	return sets, copies
}

func BenchmarkDuplicationMap(b *testing.B) {
	sets, copies := benchSDRInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ops := range sets {
			HasSDRRef(ops, copies)
		}
	}
}
