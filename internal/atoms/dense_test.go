package atoms_test

import (
	"math/rand"
	"reflect"
	"testing"

	"parmem/internal/atoms"
	"parmem/internal/graph"
	"parmem/internal/oracle"
)

func randomAtomGraph(r *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(i * 2) // non-contiguous ids
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i*2, j*2, 1)
			}
		}
	}
	return g
}

// TestMCSMDenseMatchesRef proves the dense MCS-M bit-identical to the
// map-backed reference in internal/oracle: same elimination order and same fill edges for
// every random input.
func TestMCSMDenseMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for iter := 0; iter < 120; iter++ {
		n := r.Intn(30)
		g := randomAtomGraph(r, n, r.Float64()*0.5)
		want := oracle.MCSMRef(g)
		got := atoms.MCSM(graph.FromGraph(g))
		if !reflect.DeepEqual(got.Order, want.Order) {
			t.Fatalf("iter %d: order %v, want %v\n%s", iter, got.Order, want.Order, g)
		}
		if len(got.Fill) != len(want.Fill) || (len(want.Fill) > 0 && !reflect.DeepEqual(got.Fill, want.Fill)) {
			t.Fatalf("iter %d: fill %v, want %v\n%s", iter, got.Fill, want.Fill, g)
		}
	}
}

// TestDecomposeDenseMatchesRef proves the dense decomposition bit-identical
// to the reference: same atoms, same separators, same fill count.
func TestDecomposeDenseMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 80; iter++ {
		n := r.Intn(26)
		g := randomAtomGraph(r, n, r.Float64()*0.4)
		want := oracle.DecomposeRef(g)
		got := atoms.Decompose(graph.FromGraph(g), 1)
		if len(got.Atoms) != len(want.Atoms) {
			t.Fatalf("iter %d: %d atoms, want %d\n%s", iter, len(got.Atoms), len(want.Atoms), g)
		}
		for i := range want.Atoms {
			if !reflect.DeepEqual(got.Atoms[i].Nodes, want.Atoms[i].Nodes) {
				t.Fatalf("iter %d: atom %d nodes %v, want %v", iter, i, got.Atoms[i].Nodes, want.Atoms[i].Nodes)
			}
		}
		if !reflect.DeepEqual(got.Separators, want.Separators) {
			t.Fatalf("iter %d: separators %v, want %v", iter, got.Separators, want.Separators)
		}
		if got.Fill != want.Fill {
			t.Fatalf("iter %d: fill %d, want %d", iter, got.Fill, want.Fill)
		}
	}
}

// TestDecomposeParallelRefMatches pins the parallel reference path to the
// sequential reference path.
func TestDecomposeParallelRefMatches(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	// Several components to actually exercise the fan-out.
	g := graph.New()
	base := 0
	for c := 0; c < 5; c++ {
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				if r.Float64() < 0.5 {
					g.AddEdge(base+i, base+j, 1)
				}
			}
		}
		base += 10
	}
	want := oracle.DecomposeRef(g)
	got := oracle.DecomposeParallelRef(g, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel ref decomposition diverged")
	}
}
