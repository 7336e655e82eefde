package graph

import (
	"math/rand"
	"testing"
)

// randBitset builds a random bitset over n bits and the equivalent index set.
func randBitset(r *rand.Rand, n int, p float64) ([]uint64, map[int32]bool) {
	s := make([]uint64, BitsetWords(n))
	set := make(map[int32]bool)
	for i := int32(0); int(i) < n; i++ {
		if r.Float64() < p {
			SetBit(s, i)
			set[i] = true
		}
	}
	return s, set
}

// TestKernelsMatchReference fuzzes every word kernel against the naive
// per-bit set semantics.
func TestKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(300)
		a, as := randBitset(r, n, r.Float64())
		for i := int32(0); int(i) < n; i++ {
			if TestBit(a, i) != as[i] {
				t.Fatalf("iter %d: TestBit(%d) = %v, want %v", iter, i, TestBit(a, i), as[i])
			}
		}

		// AppendSetBits must emit exactly the set bits, in ascending order.
		app := AppendSetBits(nil, a)
		if len(app) != len(as) {
			t.Fatalf("iter %d: AppendSetBits length %d, want %d", iter, len(app), len(as))
		}
		for j := range app {
			if (j > 0 && app[j] <= app[j-1]) || !as[app[j]] {
				t.Fatalf("iter %d: AppendSetBits order broken at %d", iter, j)
			}
		}

		// ClearBit undoes SetBit.
		if len(app) > 0 {
			ClearBit(a, app[0])
			if TestBit(a, app[0]) {
				t.Fatalf("iter %d: ClearBit(%d) left the bit set", iter, app[0])
			}
		}
	}
}

// buildAllReprs builds the same graph under each adjacency representation by
// lowering the bitset ceilings, plus the map-backed Graph as the oracle.
func buildAllReprs(t *testing.T, g *Graph) (flat, blocked, csr *Dense) {
	t.Helper()
	n := len(g.adj)
	restore := SetBitsetCeilings(n, n)
	flat = FromGraph(g)
	restore()
	restore = SetBitsetCeilings(0, n)
	blocked = FromGraph(g)
	restore()
	restore = SetBitsetCeilings(0, 0)
	csr = FromGraph(g)
	restore()
	if flat.BitsetKind() != "flat" || blocked.BitsetKind() != "blocked" || csr.BitsetKind() != "csr" {
		t.Fatalf("representation kinds = %s/%s/%s", flat.BitsetKind(), blocked.BitsetKind(), csr.BitsetKind())
	}
	return flat, blocked, csr
}

// TestBlockedBitsetDifferential forces the flat, blocked and CSR forms onto
// identical random graphs and requires every read accessor to agree
// bit-for-bit across all three plus the map reference.
func TestBlockedBitsetDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		n := 65 + r.Intn(400) // spans multiple words and, with low ceilings, blocks
		g := randomIDGraph(r, n, r.Float64()*0.15)
		flat, blocked, csr := buildAllReprs(t, g)

		mask, _ := randBitset(r, n, r.Float64())
		for i := int32(0); int(i) < n; i++ {
			for j := int32(0); int(j) < n; j++ {
				f, b, c := flat.HasEdgeIdx(i, j), blocked.HasEdgeIdx(i, j), csr.HasEdgeIdx(i, j)
				if f != b || f != c {
					t.Fatalf("iter %d: HasEdgeIdx(%d,%d) flat=%v blocked=%v csr=%v", iter, i, j, f, b, c)
				}
			}
			for w := 0; w < BitsetWords(n); w++ {
				if flat.RowWord(i, w) != blocked.RowWord(i, w) {
					t.Fatalf("iter %d: RowWord(%d,%d) differs flat vs blocked", iter, i, w)
				}
			}
			fa := flat.RowAndInto(i, mask, nil)
			ba := blocked.RowAndInto(i, mask, nil)
			ca := csr.RowAndInto(i, mask, nil)
			fn := flat.RowAndNotInto(i, mask, nil)
			bn := blocked.RowAndNotInto(i, mask, nil)
			cn := csr.RowAndNotInto(i, mask, nil)
			if !equalInt32(fa, ba) || !equalInt32(fa, ca) {
				t.Fatalf("iter %d: RowAndInto(%d) diverges: flat=%v blocked=%v csr=%v", iter, i, fa, ba, ca)
			}
			if !equalInt32(fn, bn) || !equalInt32(fn, cn) {
				t.Fatalf("iter %d: RowAndNotInto(%d) diverges: flat=%v blocked=%v csr=%v", iter, i, fn, bn, cn)
			}
			if len(fa)+len(fn) != flat.Deg(i) {
				t.Fatalf("iter %d: row %d and/andNot don't partition the row", iter, i)
			}
		}
	}
}

// TestRowMaskWordPath forces the word-walk branch of the masked row scans
// (dense rows past the degree threshold) against the CSR walk.
func TestRowMaskWordPath(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	n := 192
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(i)
	}
	// Row 0 nearly complete (word path), the rest sparse (CSR path).
	for j := 1; j < n; j++ {
		if j%7 != 0 {
			g.AddEdge(0, j, 1)
		}
		if r.Intn(10) == 0 {
			g.AddEdge(j, r.Intn(n), 1)
		}
	}
	flat, blocked, csr := buildAllReprs(t, g)
	if !flat.rowScanThreshold(0) || !blocked.rowScanThreshold(0) {
		t.Fatal("row 0 should take the word-walk path")
	}
	for trial := 0; trial < 50; trial++ {
		mask, _ := randBitset(r, n, r.Float64())
		for i := int32(0); int(i) < n; i++ {
			want := csr.RowAndInto(i, mask, nil)
			wantNot := csr.RowAndNotInto(i, mask, nil)
			if !equalInt32(flat.RowAndInto(i, mask, nil), want) ||
				!equalInt32(blocked.RowAndInto(i, mask, nil), want) {
				t.Fatalf("trial %d: RowAndInto(%d) word path diverges", trial, i)
			}
			if !equalInt32(flat.RowAndNotInto(i, mask, nil), wantNot) ||
				!equalInt32(blocked.RowAndNotInto(i, mask, nil), wantNot) {
				t.Fatalf("trial %d: RowAndNotInto(%d) word path diverges", trial, i)
			}
		}
	}
}

// TestBlockedBitsetBoundary sweeps the exact flat/blocked handoff: at the
// real DenseBitsetMaxN ceiling ±1 the chosen representation must flip and
// all probes must agree with the map graph.
func TestBlockedBitsetBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("boundary sweep is slow in -short mode")
	}
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{DenseBitsetMaxN - 1, DenseBitsetMaxN, DenseBitsetMaxN + 1} {
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode(i)
		}
		for i := 0; i < 6*n; i++ {
			g.AddEdge(r.Intn(n), r.Intn(n), 1)
		}
		d := FromGraph(g)
		wantKind := "flat"
		if n > DenseBitsetMaxN {
			wantKind = "blocked"
		}
		if d.BitsetKind() != wantKind {
			t.Fatalf("n=%d: BitsetKind = %s, want %s", n, d.BitsetKind(), wantKind)
		}
		for i := 0; i < 20*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if d.HasEdgeIdx(int32(u), int32(v)) != g.HasEdge(u, v) {
				t.Fatalf("n=%d: HasEdgeIdx(%d,%d) disagrees with Graph", n, u, v)
			}
		}
	}
}

// TestBlockedBitset10k proves the acceptance criterion directly: a 10k-node
// conflict graph stays on the bitset fast path, every probe agreeing with
// the map reference.
func TestBlockedBitset10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k graph build is slow in -short mode")
	}
	r := rand.New(rand.NewSource(14))
	n := 10_000
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(i)
	}
	for i := 0; i < 8*n; i++ {
		g.AddEdge(r.Intn(n), r.Intn(n), 1)
	}
	d := FromGraph(g)
	if d.BitsetKind() != "blocked" {
		t.Fatalf("10k graph BitsetKind = %s, want blocked (CSR fallback would be the slow path)", d.BitsetKind())
	}
	for i := 0; i < 50_000; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if d.HasEdgeIdx(int32(u), int32(v)) != g.HasEdge(u, v) {
			t.Fatalf("HasEdgeIdx(%d,%d) disagrees with Graph", u, v)
		}
	}
}

// BenchmarkDense10kProbe measures the blocked bitset against the CSR
// binary-search fallback on a 10k-vertex graph — the probe pattern that
// motivated the blocked form.
func BenchmarkDense10kProbe(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	n := 10_000
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(i)
	}
	for i := 0; i < 8*n; i++ {
		g.AddEdge(r.Intn(n), r.Intn(n), 1)
	}
	probes := make([][2]int32, 4096)
	for i := range probes {
		probes[i] = [2]int32{int32(r.Intn(n)), int32(r.Intn(n))}
	}
	run := func(b *testing.B, d *Dense) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			p := probes[i%len(probes)]
			if d.HasEdgeIdx(p[0], p[1]) {
				hits++
			}
		}
		sink = hits
	}
	b.Run("blocked", func(b *testing.B) {
		d := FromGraph(g)
		if d.BitsetKind() != "blocked" {
			b.Fatalf("kind = %s", d.BitsetKind())
		}
		run(b, d)
	})
	b.Run("csr", func(b *testing.B) {
		restore := SetBitsetCeilings(0, 0)
		d := FromGraph(g)
		restore()
		run(b, d)
	})
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
