package graph

import (
	"cmp"
	"math/bits"
	"slices"

	"parmem/internal/arena"
)

// Dense is a frozen, cache-friendly snapshot of a graph, built once and then
// read by the hot phases (MCS-M ordering, urgency coloring, clique checks).
// FromPairs builds one (conflict.Snapshot feeds it straight from an
// instruction stream, FromGraph from a map graph), Sub extracts the
// induced sub-snapshot of an index set, and Patch applies an edit.
//
// Vertices are remapped onto the dense index range [0,n) in ascending
// original-id order, so index order and id order agree and every tie-break
// rule expressed as "lowest id first" in the map-backed algorithms is
// "lowest index first" here — the dense and map implementations are
// bit-identical by construction.
//
// Adjacency is stored twice, each form serving one access pattern:
//
//   - CSR (compressed sparse row): one flat neighbor array plus per-vertex
//     offsets, neighbors pre-sorted ascending at build time. Iterating a
//     neighborhood is a contiguous slice scan with zero allocation, where
//     Graph.Neighbors allocates and re-sorts on every call.
//   - A bitset adjacency for O(1) HasEdge and the word-at-a-time kernels of
//     kernels.go. While n <= DenseBitsetMaxN it is a flat n×n matrix; up to
//     BlockedBitsetMaxN it is a two-level blocked form that only
//     materializes the non-empty 64-word blocks of each row (a quadratic
//     matrix at 10k+ vertices would dwarf the win); beyond that HasEdge
//     falls back to binary search in the CSR row of the smaller-degree
//     endpoint.
//
// Edge weights ride in a flat []int32 parallel to the neighbor array, and
// degrees are offset differences — no map lookups anywhere on the read path.
type Dense struct {
	ids []int // index -> original id, ascending; Index binary-searches it

	off []int32 // CSR offsets; row i is nbr[off[i]:off[i+1]]
	nbr []int32 // neighbor indices, sorted ascending within each row
	wt  []int32 // edge weight parallel to nbr

	// Flat bitset matrix (n <= the flat ceiling). Row i is
	// bits[i*stride : (i+1)*stride].
	bits   []uint64
	stride int // uint64 words per bitset row (set for both bitset forms)

	// Blocked bitset (flat ceiling < n <= the blocked ceiling). A row is
	// bpr blocks of 64 words (4096 columns) each; only non-empty blocks
	// exist. summary[r*bpr+b] has bit w set iff word b*64+w of row r is
	// non-zero, so a zero summary word means the whole block is absent.
	// blockRef[r*bpr+b] is 1+the block's position in blockWords (64 words
	// per block), or 0 when the block is empty — zeroed scratch memory is
	// the empty state for both arrays.
	bpr        int // blocks per row = ceil(stride/64)
	summary    []uint64
	blockRef   []int32
	blockWords []uint64

	numEdges int
}

// DenseBitsetMaxN bounds the vertex count up to which a snapshot materializes
// the flat bitset adjacency matrix. At the threshold the matrix occupies
// n*n/8 = 512 KiB — small enough to live in L2 while covering every conflict
// graph the paper's workloads produce by orders of magnitude.
const DenseBitsetMaxN = 2048

// BlockedBitsetMaxN bounds the vertex count up to which a snapshot builds
// the blocked bitset when the flat matrix is too big. The per-row overhead
// of the summary and block-reference arrays is 12 bytes per 4096-column
// block — n²·12/4096 bytes total, ~29 MiB at the ceiling — while the
// materialized blocks are bounded by the number of edges, so 10k+-vertex
// conflict graphs stay on the O(1) bitset fast path instead of falling
// back to CSR binary search.
const BlockedBitsetMaxN = 1 << 17

// blockWordsPerBlock is the block granularity of the blocked bitset: 64
// words = 4096 columns, so one summary word exactly covers one block.
const blockWordsPerBlock = 64

// The active ceilings. They default to the constants above; tests lower
// them via SetBitsetCeilings to force every representation at small n.
var flatCeiling, blockedCeiling = DenseBitsetMaxN, BlockedBitsetMaxN

// SetBitsetCeilings overrides the vertex-count ceilings of the flat and
// blocked bitset forms and returns a func restoring the previous values.
// Passing 0 for both forces the CSR binary-search fallback everywhere. It
// is a test/benchmark hook for the representation-differential sweeps; it
// must not be called while snapshots are being built.
func SetBitsetCeilings(flat, blocked int) (restore func()) {
	pf, pb := flatCeiling, blockedCeiling
	flatCeiling, blockedCeiling = flat, blocked
	return func() { flatCeiling, blockedCeiling = pf, pb }
}

// FromGraph builds the dense snapshot of g. Later mutations of g are not
// reflected. The engine builds its snapshots straight from the instruction
// stream (conflict.Snapshot); FromGraph serves the map-graph boundary: the
// tests, the oracle comparisons and the benchmark's layer timings.
func FromGraph(g *Graph) *Dense {
	ids := make([]int, 0, len(g.adj))
	pos := make(map[int]int32, len(g.adj))
	for v := range g.adj {
		pos[v] = int32(len(ids))
		ids = append(ids, v)
	}
	pairs := make(map[uint64]int, g.m)
	for u, nbrs := range g.adj {
		for v, w := range nbrs {
			if u < v {
				pairs[uint64(pos[u])<<32|uint64(pos[v])] = w
			}
		}
	}
	return FromPairs(ids, pairs, nil)
}

// FromPairs is the one CSR constructor: it builds the snapshot over the
// distinct vertex ids (in any order) whose weighted edges are pairs, keyed
// uint64(a)<<32|uint64(b) by the positions a != b of the endpoints in ids,
// each unordered pair once. The snapshot's storage is borrowed from sc and
// only valid until sc is Reset or Released; a nil sc allocates it fresh.
func FromPairs(ids []int, pairs map[uint64]int, sc *arena.Scratch) *Dense {
	tmp := arena.Get()
	defer tmp.Release()
	n := len(ids)
	// rank[p] is the dense index of ids[p]: its position in id order.
	perm := tmp.Int32s(n)
	for p := range perm {
		perm[p] = int32(p)
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
	rank := tmp.Int32s(n)
	d := &Dense{ids: sc.Ints(n), off: sc.Int32s(n + 1)}
	for i, p := range perm {
		rank[p] = int32(i)
		d.ids[i] = ids[p]
	}
	for key := range pairs {
		d.off[rank[key>>32]+1]++
		d.off[rank[uint32(key)]+1]++
	}
	for i := 0; i < n; i++ {
		d.off[i+1] += d.off[i]
	}
	total := int(d.off[n])
	// Each row entry packs (neighbor, weight), so sorting a row's words
	// orders it by neighbor and carries the weights along.
	packed := tmp.Uint64s(total)
	next := tmp.Int32s(n)
	copy(next, d.off[:n])
	for key, w := range pairs {
		a, b := rank[key>>32], rank[uint32(key)]
		packed[next[a]] = uint64(b)<<32 | uint64(uint32(w))
		packed[next[b]] = uint64(a)<<32 | uint64(uint32(w))
		next[a]++
		next[b]++
	}
	d.nbr, d.wt = sc.Int32s(total), sc.Int32s(total)
	for i := 0; i < n; i++ {
		row := packed[d.off[i]:d.off[i+1]]
		slices.Sort(row)
		for j, x := range row {
			d.nbr[int(d.off[i])+j] = int32(x >> 32)
			d.wt[int(d.off[i])+j] = int32(uint32(x))
		}
	}
	d.numEdges = total / 2
	d.buildBitsets(sc)
	return d
}

// Sub returns the sub-snapshot induced by the dense indices idx, which
// must ascend: local index j is idx[j], so local index order is still id
// order, and only the edges with both endpoints in idx remain, which makes
// every degree, weight row and bitset of the result the induced one. The
// storage comes from sc, sized by len(idx) apart from a membership mask of
// BitsetWords(N()) words; when idx is every index the result is d itself.
func (d *Dense) Sub(idx []int32, sc *arena.Scratch) *Dense {
	if len(idx) == d.N() {
		return d
	}
	in := sc.Uint64s(BitsetWords(d.N()))
	for _, i := range idx {
		SetBit(in, i)
	}
	s := &Dense{ids: sc.Ints(len(idx)), off: sc.Int32s(len(idx) + 1)}
	total := 0
	for j, i := range idx {
		s.ids[j] = d.ids[i]
		for _, u := range d.Row(i) {
			if TestBit(in, u) {
				total++
			}
		}
		s.off[j+1] = int32(total)
	}
	s.nbr, s.wt = sc.Int32s(total), sc.Int32s(total)
	p := 0
	for _, i := range idx {
		wts := d.WeightRow(i)
		local := 0 // rows ascend, so the local position only moves forward
		for k, u := range d.Row(i) {
			if !TestBit(in, u) {
				continue
			}
			off, _ := slices.BinarySearch(idx[local:], u)
			local += off
			s.nbr[p], s.wt[p] = int32(local), wts[k]
			p++
		}
	}
	s.numEdges = total / 2
	s.buildBitsets(sc)
	return s
}

// Components returns the vertex sets of the connected components as
// ascending dense indices, ordered by their smallest index.
func (d *Dense) Components() [][]int32 {
	n := d.N()
	seen := make([]uint64, BitsetWords(n))
	var comps [][]int32
	var stack []int32
	for start := int32(0); int(start) < n; start++ {
		if TestBit(seen, start) {
			continue
		}
		var comp []int32
		SetBit(seen, start)
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range d.Row(v) {
				if !TestBit(seen, u) {
					SetBit(seen, u)
					stack = append(stack, u)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// buildBitsets materializes the bitset adjacency the vertex count calls
// for under the active ceilings, from the finished CSR rows.
func (d *Dense) buildBitsets(sc *arena.Scratch) {
	n := len(d.ids)
	switch {
	case n > 0 && n <= flatCeiling:
		d.stride = BitsetWords(n)
		d.bits = sc.Uint64s(n * d.stride)
		for i := 0; i < n; i++ {
			for _, u := range d.Row(int32(i)) {
				d.bits[i*d.stride+int(u)/64] |= 1 << (uint(u) % 64)
			}
		}
	case n > flatCeiling && n <= blockedCeiling:
		d.buildBlocked(sc)
	}
}

// buildBlocked materializes the two-level blocked bitset: a first pass
// marks the summary words (counting non-empty blocks as they first
// appear), a second assigns each non-empty block its slot in blockWords
// and sets the adjacency bits.
func (d *Dense) buildBlocked(sc *arena.Scratch) {
	n := len(d.ids)
	d.stride = (n + 63) / 64
	d.bpr = (d.stride + blockWordsPerBlock - 1) / blockWordsPerBlock
	d.summary = sc.Uint64s(n * d.bpr)
	d.blockRef = sc.Int32s(n * d.bpr)

	nblocks := 0
	for i := 0; i < n; i++ {
		base := i * d.bpr
		for _, u := range d.Row(int32(i)) {
			w := int(u) >> 6
			b := base + w>>6
			if d.summary[b] == 0 {
				nblocks++
			}
			d.summary[b] |= 1 << (uint(w) & 63)
		}
	}
	next := int32(0)
	for b := range d.summary {
		if d.summary[b] != 0 {
			next++
			d.blockRef[b] = next // 1-based; 0 = absent
		}
	}
	d.blockWords = sc.Uint64s(nblocks * blockWordsPerBlock)
	for i := 0; i < n; i++ {
		base := i * d.bpr
		for _, u := range d.Row(int32(i)) {
			w := int(u) >> 6
			ref := int(d.blockRef[base+w>>6]) - 1
			d.blockWords[ref*blockWordsPerBlock+(w&63)] |= 1 << (uint(u) & 63)
		}
	}
}

// N returns the number of vertices.
func (d *Dense) N() int { return len(d.ids) }

// NumEdges returns the number of undirected edges.
func (d *Dense) NumEdges() int { return d.numEdges }

// ID returns the original vertex id of dense index i.
func (d *Dense) ID(i int32) int { return d.ids[i] }

// IDs returns the original vertex ids in ascending order. The slice is the
// Dense's own storage; callers must not modify it.
func (d *Dense) IDs() []int { return d.ids }

// Index returns the dense index of original id v, or -1 if v is absent.
func (d *Dense) Index(v int) int32 {
	if i, ok := slices.BinarySearch(d.ids, v); ok {
		return int32(i)
	}
	return -1
}

// Deg returns the degree of dense index i.
func (d *Dense) Deg(i int32) int { return int(d.off[i+1] - d.off[i]) }

// Row returns the neighbor indices of dense index i, sorted ascending. The
// slice aliases the CSR storage; callers must not modify it.
func (d *Dense) Row(i int32) []int32 { return d.nbr[d.off[i]:d.off[i+1]] }

// WeightRow returns the edge weights parallel to Row(i). The slice aliases
// the CSR storage; callers must not modify it.
func (d *Dense) WeightRow(i int32) []int32 { return d.wt[d.off[i]:d.off[i+1]] }

// HasEdgeIdx reports whether the undirected edge {u,v} exists, by dense
// index: one bitset probe when the flat matrix is materialized, a
// summary-gated probe on the blocked form, otherwise a binary search in
// the smaller-degree endpoint's CSR row.
func (d *Dense) HasEdgeIdx(u, v int32) bool {
	if u == v {
		return false
	}
	if d.bits != nil {
		return d.bits[int(u)*d.stride+int(v)/64]&(1<<(uint(v)%64)) != 0
	}
	if d.summary != nil {
		w := int(v) >> 6
		b := int(u)*d.bpr + w>>6
		if d.summary[b]&(1<<(uint(w)&63)) == 0 {
			return false
		}
		ref := int(d.blockRef[b]) - 1
		return d.blockWords[ref*blockWordsPerBlock+(w&63)]&(1<<(uint(v)&63)) != 0
	}
	if d.Deg(v) < d.Deg(u) {
		u, v = v, u
	}
	return d.searchRow(u, v) >= 0
}

// BitsetKind names the adjacency representation answering HasEdgeIdx:
// "flat" (n×n matrix), "blocked" (two-level blocked bitset) or "csr"
// (binary-search fallback, no bitset). Tests and benchmarks assert the
// fast path with it.
func (d *Dense) BitsetKind() string {
	switch {
	case d.bits != nil:
		return "flat"
	case d.summary != nil:
		return "blocked"
	default:
		return "csr"
	}
}

// HasRowWords reports whether RowWord is available (some bitset form
// exists).
func (d *Dense) HasRowWords() bool { return d.bits != nil || d.summary != nil }

// RowWord returns the w-th 64-bit adjacency word of row i (vertices
// w*64..w*64+63). Only valid when HasRowWords; absent blocks of the
// blocked form read as zero.
func (d *Dense) RowWord(i int32, w int) uint64 {
	if d.bits != nil {
		return d.bits[int(i)*d.stride+w]
	}
	b := int(i)*d.bpr + w>>6
	if d.summary[b]&(1<<(uint(w)&63)) == 0 {
		return 0
	}
	ref := int(d.blockRef[b]) - 1
	return d.blockWords[ref*blockWordsPerBlock+(w&63)]
}

// rowScanThreshold picks between the CSR-walk and word-walk forms of the
// masked row scans: a row whose degree is well below the word count of the
// whole bitset is cheaper to walk as a neighbor list with per-bit mask
// probes, a denser one as whole words. Both walks emit ascending indices,
// so the choice never changes results.
func (d *Dense) rowScanThreshold(i int32) bool { return d.Deg(i) >= 2*d.stride }

// RowAndNotInto appends to dst, in ascending order, every neighbor u of
// row i whose mask bit is NOT set, and returns the extended slice. mask is
// a flat bitset of BitsetWords(N()) words. On the bitset forms dense rows
// are combined with the mask one uint64 word — 64 vertices — at a time.
func (d *Dense) RowAndNotInto(i int32, mask []uint64, dst []int32) []int32 {
	if d.HasRowWords() && d.rowScanThreshold(i) {
		return d.rowMaskWords(i, mask, dst, true)
	}
	for _, u := range d.Row(i) {
		if !TestBit(mask, u) {
			dst = append(dst, u)
		}
	}
	return dst
}

// RowAndInto appends to dst, in ascending order, every neighbor u of row i
// whose mask bit IS set, and returns the extended slice.
func (d *Dense) RowAndInto(i int32, mask []uint64, dst []int32) []int32 {
	if d.HasRowWords() && d.rowScanThreshold(i) {
		return d.rowMaskWords(i, mask, dst, false)
	}
	for _, u := range d.Row(i) {
		if TestBit(mask, u) {
			dst = append(dst, u)
		}
	}
	return dst
}

// rowMaskWords is the word-walk form of the masked row scans: row ∧ ¬mask
// (andNot) or row ∧ mask, whole words at a time, ascending.
func (d *Dense) rowMaskWords(i int32, mask []uint64, dst []int32, andNot bool) []int32 {
	if d.bits != nil {
		row := d.bits[int(i)*d.stride : (int(i)+1)*d.stride]
		for w, x := range row {
			if andNot {
				x &^= mask[w]
			} else {
				x &= mask[w]
			}
			dst = appendWordBits(dst, int32(w)<<6, x)
		}
		return dst
	}
	base := int(i) * d.bpr
	for b := 0; b < d.bpr; b++ {
		sum := d.summary[base+b]
		if sum == 0 {
			continue
		}
		ref := int(d.blockRef[base+b]) - 1
		block := d.blockWords[ref*blockWordsPerBlock : (ref+1)*blockWordsPerBlock]
		for sum != 0 {
			s := bits.TrailingZeros64(sum)
			sum &= sum - 1
			w := b*blockWordsPerBlock + s
			x := block[s]
			if andNot {
				x &^= mask[w]
			} else {
				x &= mask[w]
			}
			dst = appendWordBits(dst, int32(w)<<6, x)
		}
	}
	return dst
}

// searchRow binary-searches row u for v, returning the flat CSR position or
// -1.
func (d *Dense) searchRow(u, v int32) int {
	lo, hi := int(d.off[u]), int(d.off[u+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case d.nbr[mid] < v:
			lo = mid + 1
		case d.nbr[mid] > v:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}
