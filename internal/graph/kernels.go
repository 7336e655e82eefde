package graph

import "math/bits"

// Word-at-a-time bitset kernels.
//
// The hot phases of the assignment engine (MCS-M ordering, clique-separator
// carving, urgency coloring) spend their time asking set questions about
// adjacency rows: "which neighbors are still unnumbered", "which neighbors
// are already assigned", "does this row contain that whole set". Answering
// them one vertex at a time costs a branch per bit; these kernels answer
// them one uint64 word — 64 vertices — at a time, and every iteration order
// is ascending bit order, so call sites keep the "lowest id first"
// tie-break rules of the reference algorithms bit-identically.
//
// A bitset over n vertices is a []uint64 of BitsetWords(n) words; bit i of
// word i/64 is vertex i.

// BitsetWords returns the []uint64 length covering n bits.
func BitsetWords(n int) int { return (n + 63) / 64 }

// TestBit reports whether bit i is set.
func TestBit(s []uint64, i int32) bool {
	return s[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0
}

// SetBit sets bit i.
func SetBit(s []uint64, i int32) {
	s[uint32(i)>>6] |= 1 << (uint32(i) & 63)
}

// ClearBit clears bit i.
func ClearBit(s []uint64, i int32) {
	s[uint32(i)>>6] &^= 1 << (uint32(i) & 63)
}

// AppendSetBits appends every set bit index to dst in ascending order and
// returns the extended slice.
func AppendSetBits(dst []int32, s []uint64) []int32 {
	for w, x := range s {
		base := int32(w) << 6
		for x != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return dst
}

// appendWordBits appends the set bits of one word (offset by base) to dst.
func appendWordBits(dst []int32, base int32, x uint64) []int32 {
	for x != 0 {
		dst = append(dst, base+int32(bits.TrailingZeros64(x)))
		x &= x - 1
	}
	return dst
}
