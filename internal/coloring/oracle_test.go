package coloring_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parmem/internal/atoms"
	"parmem/internal/coloring"
	"parmem/internal/graph"
	"parmem/internal/oracle"
)

// The differential and optimality tests against internal/oracle. They live
// in the external test package because oracle imports coloring.

// TestGuptaSoffaDenseMatchesMap proves the dense urgency heuristic
// bit-identical to the map reference across random graphs, module counts
// and precolorings: same assignment map and same removal order.
func TestGuptaSoffaDenseMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for iter := 0; iter < 200; iter++ {
		n := r.Intn(28)
		g := coloring.RandomConflictGraph(r, n, r.Float64()*0.7, 4)
		k := 1 + r.Intn(6)
		pre := map[int]int{}
		if n > 0 && r.Intn(2) == 0 {
			for c := r.Intn(4); c > 0; c-- {
				pre[r.Intn(n)*3+1] = r.Intn(k)
			}
			// Precolored nodes must not make adjacent nodes share a module;
			// GuptaSoffa does not require that, so random precoloring is fine.
		}
		opt := coloring.Options{K: k, Precolored: pre}
		want := oracle.GuptaSoffaMap(g, opt)
		got := coloring.GuptaSoffa(graph.FromGraph(g), opt)
		if !reflect.DeepEqual(got.Assign, want.Assign) {
			t.Fatalf("iter %d (k=%d pre=%v): assign %v, want %v\n%s",
				iter, k, pre, got.Assign, want.Assign, g)
		}
		if len(got.Unassigned) != len(want.Unassigned) ||
			(len(want.Unassigned) > 0 && !reflect.DeepEqual(got.Unassigned, want.Unassigned)) {
			t.Fatalf("iter %d (k=%d pre=%v): unassigned %v, want %v\n%s",
				iter, k, pre, got.Unassigned, want.Unassigned, g)
		}
		// Random precoloring may clash by construction (GuptaSoffa honors it
		// verbatim); only unconstrained runs must be proper.
		if len(pre) == 0 {
			if err := coloring.CheckProper(g, got.Assign); err != nil {
				t.Fatalf("iter %d: improper coloring: %v", iter, err)
			}
		}
	}
}

func TestDSATUR(t *testing.T) {
	if res := oracle.DSATUR(coloring.CompleteGraph(4), 3); len(res.Unassigned) != 1 {
		t.Fatalf("DSATUR K4/3: unassigned = %v", res.Unassigned)
	}
	// Even cycle is 2-colorable and DSATUR finds it.
	g := coloring.CycleGraph(8)
	res := oracle.DSATUR(g, 2)
	if len(res.Unassigned) != 0 {
		t.Fatalf("DSATUR C8/2: unassigned = %v", res.Unassigned)
	}
	if err := coloring.CheckProper(g, res.Assign); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFit(t *testing.T) {
	g := coloring.CycleGraph(5)
	res := oracle.FirstFit(g, 3)
	if len(res.Unassigned) != 0 {
		t.Fatalf("FirstFit C5/3: unassigned = %v", res.Unassigned)
	}
	if err := coloring.CheckProper(g, res.Assign); err != nil {
		t.Fatal(err)
	}
}

func TestExactMinRemoved(t *testing.T) {
	if res := oracle.ExactMinRemoved(coloring.CompleteGraph(5), 3); len(res.Unassigned) != 2 {
		t.Fatalf("exact K5/3 removed = %v, want 2", res.Unassigned)
	}
	// Odd cycle with 2 colors: removing any single vertex suffices.
	res := oracle.ExactMinRemoved(coloring.CycleGraph(5), 2)
	if len(res.Unassigned) != 1 {
		t.Fatalf("exact C5/2 removed = %v, want 1", res.Unassigned)
	}
	g := coloring.CycleGraph(5)
	if err := coloring.CheckProper(g, res.Assign); err != nil {
		t.Fatal(err)
	}
	// 3-colorable graph: nothing removed.
	if res := oracle.ExactMinRemoved(coloring.CycleGraph(7), 3); len(res.Unassigned) != 0 {
		t.Fatalf("exact C7/3 removed = %v, want 0", res.Unassigned)
	}
}

// Property: the heuristic never beats the exact optimum (sanity check of
// both implementations on small graphs).
func TestHeuristicVsExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(2)
		g := coloring.RandomGraph(r, 3+r.Intn(9), 0.3+r.Float64()*0.4)
		h := coloring.GuptaSoffa(graph.FromGraph(g), coloring.Options{K: k})
		e := oracle.ExactMinRemoved(g, k)
		if len(h.Unassigned) < len(e.Unassigned) {
			t.Logf("seed %d: heuristic %d < exact %d", seed, len(h.Unassigned), len(e.Unassigned))
			return false
		}
		return coloring.CheckProper(g, e.Assign) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHeuristicSuboptimalExists documents that the heuristic is not optimal:
// there is some instance where it removes more nodes than the exact
// algorithm (the paper proves a worst-case ratio of (n-k)/2).
func TestHeuristicSuboptimalExists(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	for i := 0; i < 400; i++ {
		k := 2 + r.Intn(2)
		g := coloring.RandomGraph(r, 6+r.Intn(8), 0.4+r.Float64()*0.3)
		h := coloring.GuptaSoffa(graph.FromGraph(g), coloring.Options{K: k})
		e := oracle.ExactMinRemoved(g, k)
		if len(h.Unassigned) > len(e.Unassigned) {
			return // found a witness: heuristic is suboptimal, as the paper states
		}
	}
	t.Fatal("no instance found where the heuristic is suboptimal; either the heuristic became exact (unlikely) or the search is broken")
}

// TestGuptaSoffaInducedDegrees pins the induced-degree rule: colored on a
// sub-snapshot, the heuristic's degree tests (deg < k drops a node's
// outgoing weights; deg >= k counts a neighbor's incoming weight) and its
// S sums must see only the subset's edges, exactly as on the induced map
// graph.
func TestGuptaSoffaInducedDegrees(t *testing.T) {
	const k = 3
	// A weighted 5-cycle whose every member also conflicts with three
	// outside hubs: full degree 5 >= k, induced degree 2 < k.
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5, 1+i)
		for h := 10; h < 13; h++ {
			g.AddEdge(i, h, 1+(i*h)%4)
		}
	}
	d := graph.FromGraph(g)
	cycle := []int32{0, 1, 2, 3, 4}
	for _, pre := range []map[int]int{nil, {2: 1}} {
		got := coloring.GuptaSoffa(d.Sub(cycle, nil), coloring.Options{K: k, Precolored: pre})
		want := oracle.GuptaSoffaMap(g.Induced([]int{0, 1, 2, 3, 4}), coloring.Options{K: k, Precolored: pre})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle, precolored %v: got %+v, want %+v", pre, got, want)
		}
	}

	// Atoms of random conflict graphs with some members removed, the way
	// the engine drops the values an earlier atom failed to color.
	r := rand.New(rand.NewSource(31))
	checked := 0
	for iter := 0; iter < 200; iter++ {
		g := coloring.RandomConflictGraph(r, 8+r.Intn(20), 0.2+r.Float64()*0.4, 4)
		d := graph.FromGraph(g)
		for _, a := range atoms.Decompose(d, 1).Atoms {
			var idx []int32
			var keep []int
			for _, v := range a.Nodes {
				if r.Intn(4) != 0 {
					idx = append(idx, d.Index(v))
					keep = append(keep, v)
				}
			}
			if len(keep) == len(a.Nodes) || len(keep) == 0 {
				continue
			}
			pre := map[int]int{keep[0]: r.Intn(k)}
			got := coloring.GuptaSoffa(d.Sub(idx, nil), coloring.Options{K: k, Precolored: pre})
			want := oracle.GuptaSoffaMap(g.Induced(keep), coloring.Options{K: k, Precolored: pre})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d, atom %v without %d members: got %+v, want %+v", iter, a.Nodes, len(a.Nodes)-len(keep), got, want)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d atoms with removed members checked", checked)
	}
}
