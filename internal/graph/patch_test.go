package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// equalDense asserts every internal array of got matches a cold FromGraph
// build — not just observable behavior, so the patched snapshot is
// structurally indistinguishable from a rebuild (the property the canonical
// hash machinery and the word kernels rely on).
func equalDense(t *testing.T, got, want *Dense) {
	t.Helper()
	if !reflect.DeepEqual(got.ids, want.ids) {
		t.Fatalf("ids: got %v want %v", got.ids, want.ids)
	}
	if !reflect.DeepEqual(got.off, want.off) {
		t.Fatalf("off mismatch")
	}
	if !reflect.DeepEqual(got.nbr, want.nbr) {
		t.Fatalf("nbr: got %v want %v", got.nbr, want.nbr)
	}
	if !reflect.DeepEqual(got.wt, want.wt) {
		t.Fatalf("wt: got %v want %v", got.wt, want.wt)
	}
	if got.numEdges != want.numEdges {
		t.Fatalf("numEdges: got %d want %d", got.numEdges, want.numEdges)
	}
	if got.BitsetKind() != want.BitsetKind() {
		t.Fatalf("bitset kind: got %s want %s", got.BitsetKind(), want.BitsetKind())
	}
	if !reflect.DeepEqual(got.bits, want.bits) {
		t.Fatalf("flat bits mismatch")
	}
	if !reflect.DeepEqual(got.summary, want.summary) {
		t.Fatalf("blocked summary mismatch")
	}
	if !reflect.DeepEqual(got.blockRef, want.blockRef) {
		t.Fatalf("blocked blockRef mismatch")
	}
	if !reflect.DeepEqual(got.blockWords, want.blockWords) {
		t.Fatalf("blocked blockWords mismatch")
	}
}

// TestDensePatchDifferential drives random edit sequences through Patch and
// asserts each step is bit-identical to rebuilding the mutated map graph
// from scratch, across all three bitset representations (forced by ceiling
// overrides) and across node additions, removals, weight increments and
// edge deletions.
func TestDensePatchDifferential(t *testing.T) {
	kinds := []struct {
		name          string
		flat, blocked int
	}{
		{"flat", DenseBitsetMaxN, BlockedBitsetMaxN},
		{"blocked", 4, BlockedBitsetMaxN},
		{"csr", 0, 0},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			restore := SetBitsetCeilings(kind.flat, kind.blocked)
			defer restore()
			rng := rand.New(rand.NewSource(0xC0FFEE))
			for trial := 0; trial < 40; trial++ {
				g := New()
				n := 3 + rng.Intn(30)
				for v := 0; v < n; v++ {
					if rng.Intn(4) != 0 {
						g.AddNode(v * 3) // sparse, non-contiguous ids
					}
				}
				nodes := g.Nodes()
				for e := 0; e < 2*n; e++ {
					if len(nodes) < 2 {
						break
					}
					u := nodes[rng.Intn(len(nodes))]
					v := nodes[rng.Intn(len(nodes))]
					if u != v {
						g.AddEdgeWeight(u, v, 1+rng.Intn(3))
					}
				}
				d := FromGraph(g)
				for step := 0; step < 8; step++ {
					var deltas []WeightDelta
					var add, dropids []int
					nodes = g.Nodes()
					switch rng.Intn(4) {
					case 0: // add a node with some edges
						nv := 1000 + trial*100 + step
						g.AddNode(nv)
						add = append(add, nv)
						for _, u := range nodes {
							if rng.Intn(3) == 0 {
								w := 1 + rng.Intn(3)
								g.AddEdgeWeight(nv, u, w)
								deltas = append(deltas, WeightDelta{U: nv, V: u, DW: int32(w)})
							}
						}
					case 1: // drop a node and all incident edges
						if len(nodes) == 0 {
							continue
						}
						v := nodes[rng.Intn(len(nodes))]
						for _, u := range g.Neighbors(v) {
							deltas = append(deltas, WeightDelta{U: v, V: u, DW: int32(-g.Weight(v, u))})
						}
						g.RemoveNode(v)
						dropids = append(dropids, v)
					case 2: // bump weights of a few random pairs
						for k := 0; k < 3 && len(nodes) >= 2; k++ {
							u := nodes[rng.Intn(len(nodes))]
							v := nodes[rng.Intn(len(nodes))]
							if u == v {
								continue
							}
							g.AddEdgeWeight(u, v, 2)
							deltas = append(deltas, WeightDelta{U: u, V: v, DW: 2})
						}
					case 3: // delete a random existing edge outright
						edges := g.Edges()
						if len(edges) == 0 {
							continue
						}
						e := edges[rng.Intn(len(edges))]
						deltas = append(deltas, WeightDelta{U: e.U, V: e.V, DW: int32(-e.W)})
						g.RemoveEdge(e.U, e.V)
					}
					d = d.Patch(deltas, add, dropids)
					equalDense(t, d, FromGraph(g))
				}
			}
		})
	}
}

// TestDensePatchRepresentationCrossing covers patches that push n across a
// bitset ceiling in both directions: the patched snapshot must adopt the
// representation a cold rebuild would pick.
func TestDensePatchRepresentationCrossing(t *testing.T) {
	restore := SetBitsetCeilings(4, 8)
	defer restore()
	g := New()
	for v := 0; v < 4; v++ {
		g.AddNode(v)
		if v > 0 {
			g.AddEdgeWeight(v-1, v, 1)
		}
	}
	d := FromGraph(g)
	if d.BitsetKind() != "flat" {
		t.Fatalf("seed kind = %s, want flat", d.BitsetKind())
	}
	// Grow past the flat ceiling: flat -> blocked.
	g.AddNode(100)
	g.AddEdgeWeight(3, 100, 1)
	d = d.Patch([]WeightDelta{{U: 3, V: 100, DW: 1}}, []int{100}, nil)
	equalDense(t, d, FromGraph(g))
	if d.BitsetKind() != "blocked" {
		t.Fatalf("grown kind = %s, want blocked", d.BitsetKind())
	}
	// Grow past the blocked ceiling: blocked -> csr.
	var deltas []WeightDelta
	var add []int
	for v := 200; v < 205; v++ {
		g.AddNode(v)
		g.AddEdgeWeight(0, v, 2)
		add = append(add, v)
		deltas = append(deltas, WeightDelta{U: 0, V: v, DW: 2})
	}
	d = d.Patch(deltas, add, nil)
	equalDense(t, d, FromGraph(g))
	if d.BitsetKind() != "csr" {
		t.Fatalf("large kind = %s, want csr", d.BitsetKind())
	}
	// Shrink all the way back down: csr -> flat.
	var drops []int
	deltas = nil
	for _, v := range []int{100, 200, 201, 202, 203, 204, 3} {
		for _, u := range g.Neighbors(v) {
			deltas = append(deltas, WeightDelta{U: v, V: u, DW: int32(-g.Weight(v, u))})
		}
		g.RemoveNode(v)
		drops = append(drops, v)
	}
	d = d.Patch(deltas, nil, drops)
	equalDense(t, d, FromGraph(g))
	if d.BitsetKind() != "flat" {
		t.Fatalf("shrunk kind = %s, want flat", d.BitsetKind())
	}
}

// TestDenseSub checks Sub against Graph.Induced on the source graph, under
// all three bitset forms: the sub-snapshot must be structurally identical
// to a cold FromGraph of the induced map graph, so its degrees, weight rows
// and bitset rows are the induced ones.
func TestDenseSub(t *testing.T) {
	for _, kind := range []struct{ flat, blocked int }{
		{DenseBitsetMaxN, BlockedBitsetMaxN}, {4, BlockedBitsetMaxN}, {0, 0},
	} {
		restore := SetBitsetCeilings(kind.flat, kind.blocked)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 40; trial++ {
			g := New()
			n := 4 + rng.Intn(20)
			for v := 0; v < n; v++ {
				g.AddNode(3 * v)
			}
			for e := 0; e < 3*n; e++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					g.AddEdgeWeight(3*u, 3*v, 1+rng.Intn(2))
				}
			}
			d := FromGraph(g)
			var idx []int32
			var keep []int
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					idx = append(idx, int32(i))
					keep = append(keep, d.ID(int32(i)))
				}
			}
			equalDense(t, d.Sub(idx, nil), FromGraph(g.Induced(keep)))
		}
		restore()
	}
}

// TestDenseComponents checks Components against Graph.ConnectedComponents.
func TestDenseComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		g := randomIDGraph(rng, rng.Intn(30), 0.08)
		d := FromGraph(g)
		var got [][]int
		for _, comp := range d.Components() {
			var ids []int
			for _, i := range comp {
				ids = append(ids, d.ID(i))
			}
			got = append(got, ids)
		}
		if want := g.ConnectedComponents(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: components %v, want %v", trial, got, want)
		}
	}
}
