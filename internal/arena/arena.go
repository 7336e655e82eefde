// Package arena provides sync.Pool-backed scratch arenas for the hot
// per-call state of the assignment engine: graph.Dense build buffers,
// coloring scratch, hitting-set combination tables, conflict-graph
// interning maps and cache-key byte buffers.
//
// A Scratch is a set of typed free lists. Hot paths borrow buffers for the
// duration of one call scope:
//
//	sc := arena.Get()
//	defer sc.Release()
//	buf := sc.Ints(n) // zeroed, len n
//
// Ownership rules (see DESIGN §9):
//
//   - Buffers obtained from a Scratch are valid until that Scratch is
//     Released. They must never escape into results returned to callers
//     (Allocation, coloring.Result, cache entries) — escaping state is
//     always freshly allocated.
//   - Every getter returns zeroed memory, so a pooled run is bit-identical
//     to a fresh-allocation run: reused capacity can never leak state
//     between calls.
//   - A nil *Scratch is valid and falls back to plain make. Get returns
//     nil when pooling is disabled (SetEnabled(false)), which turns every
//     call site back into the fresh-allocation path — the differential
//     tests run both modes and compare outputs.
//
// Scratches are recycled through a sync.Pool; Drain swaps the pool out so
// heap profiles and leak-sensitive callers can drop all retained buffers.
package arena

import (
	"sync"
	"sync/atomic"
)

// maxFree bounds how many buffers of one type a Scratch retains across
// Reset, keeping steady-state pool memory proportional to the hottest
// call's working set rather than the sum of everything ever borrowed.
const maxFree = 64

// bufs is a typed free list of slices. Borrowed buffers move to lent so
// Reset can recycle them without the call sites tracking anything.
type bufs[T any] struct {
	free [][]T
	lent [][]T
}

// get returns a zeroed slice of length n, reusing a free buffer whose
// capacity suffices when one exists.
func (b *bufs[T]) get(n int) []T {
	for i := len(b.free) - 1; i >= 0; i-- {
		if cap(b.free[i]) >= n {
			s := b.free[i][:n]
			last := len(b.free) - 1
			b.free[i] = b.free[last]
			b.free[last] = nil
			b.free = b.free[:last]
			clear(s)
			b.lent = append(b.lent, s)
			return s
		}
	}
	s := make([]T, n)
	b.lent = append(b.lent, s)
	return s
}

// pending reports how many borrowed buffers Reset will return.
func (b *bufs[T]) pending() int { return len(b.lent) }

// reset recycles every lent buffer, dropping the excess beyond maxFree.
func (b *bufs[T]) reset() {
	for _, s := range b.lent {
		if len(b.free) < maxFree {
			b.free = append(b.free, s[:0])
		}
	}
	clear(b.lent)
	b.lent = b.lent[:0]
}

// maps is a typed free list of maps, cleared on reuse.
type maps[K comparable, V any] struct {
	free []map[K]V
	lent []map[K]V
}

func (m *maps[K, V]) get(hint int) map[K]V {
	if n := len(m.free); n > 0 {
		mp := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		clear(mp)
		m.lent = append(m.lent, mp)
		return mp
	}
	mp := make(map[K]V, hint)
	m.lent = append(m.lent, mp)
	return mp
}

func (m *maps[K, V]) pending() int { return len(m.lent) }

func (m *maps[K, V]) reset() {
	for _, mp := range m.lent {
		if len(m.free) < maxFree {
			m.free = append(m.free, mp)
		}
	}
	clear(m.lent)
	m.lent = m.lent[:0]
}

// Scratch is one session's worth of reusable engine buffers. It is not
// safe for concurrent use; each goroutine obtains its own via Get.
type Scratch struct {
	ints    bufs[int]
	int32s  bufs[int32]
	bools   bufs[bool]
	uint64s bufs[uint64]
	bytes   bufs[byte]

	intInt   maps[int, int]
	intInt32 maps[int, int32]
	intBool  maps[int, bool]
	pairInt  maps[uint64, int]
	strSet   maps[string, struct{}]

	// Local telemetry tallies: plain fields (the Scratch is single-owner)
	// incremented on the hot getters and flushed to the package counters
	// once per Reset, so observability costs no atomics per borrow.
	gets   int64
	zeroed int64 // bytes handed out zeroed (reused capacity + fresh)
}

// Stats is a snapshot of the package-wide arena counters.
type Stats struct {
	// Gets counts buffers and maps borrowed from scratches.
	Gets int64
	// Puts counts buffers and maps returned to the free lists on Reset.
	Puts int64
	// ZeroedBytes counts slice bytes handed out zeroed.
	ZeroedBytes int64
	// PoolGets counts Scratches drawn from the global pool via Get.
	PoolGets int64
}

// global counters, flushed from per-Scratch tallies on Reset. Disabled
// pooling (nil Scratch) bypasses the arena entirely and counts nothing.
var (
	statGets   atomic.Int64
	statPuts   atomic.Int64
	statZeroed atomic.Int64

	statPoolGets atomic.Int64
)

// ReadStats returns the cumulative arena counters for this process.
func ReadStats() Stats {
	return Stats{
		Gets:        statGets.Load(),
		Puts:        statPuts.Load(),
		ZeroedBytes: statZeroed.Load(),
		PoolGets:    statPoolGets.Load(),
	}
}

// Ints returns a zeroed []int of length n.
func (s *Scratch) Ints(n int) []int {
	if s == nil {
		return make([]int, n)
	}
	s.gets++
	s.zeroed += int64(n) * 8
	return s.ints.get(n)
}

// Int32s returns a zeroed []int32 of length n.
func (s *Scratch) Int32s(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	s.gets++
	s.zeroed += int64(n) * 4
	return s.int32s.get(n)
}

// Bools returns a zeroed []bool of length n.
func (s *Scratch) Bools(n int) []bool {
	if s == nil {
		return make([]bool, n)
	}
	s.gets++
	s.zeroed += int64(n) * 1
	return s.bools.get(n)
}

// Uint64s returns a zeroed []uint64 of length n.
func (s *Scratch) Uint64s(n int) []uint64 {
	if s == nil {
		return make([]uint64, n)
	}
	s.gets++
	s.zeroed += int64(n) * 8
	return s.uint64s.get(n)
}

// Bytes returns a zeroed []byte of length n.
func (s *Scratch) Bytes(n int) []byte {
	if s == nil {
		return make([]byte, n)
	}
	s.gets++
	s.zeroed += int64(n) * 1
	return s.bytes.get(n)
}

// IntMap returns an empty map[int]int.
func (s *Scratch) IntMap(hint int) map[int]int {
	if s == nil {
		return make(map[int]int, hint)
	}
	s.gets++
	return s.intInt.get(hint)
}

// IntInt32Map returns an empty map[int]int32.
func (s *Scratch) IntInt32Map(hint int) map[int]int32 {
	if s == nil {
		return make(map[int]int32, hint)
	}
	s.gets++
	return s.intInt32.get(hint)
}

// IntBoolMap returns an empty map[int]bool.
func (s *Scratch) IntBoolMap(hint int) map[int]bool {
	if s == nil {
		return make(map[int]bool, hint)
	}
	s.gets++
	return s.intBool.get(hint)
}

// PairMap returns an empty map[uint64]int (packed node-pair keys).
func (s *Scratch) PairMap(hint int) map[uint64]int {
	if s == nil {
		return make(map[uint64]int, hint)
	}
	s.gets++
	return s.pairInt.get(hint)
}

// StrSet returns an empty map[string]struct{} (combination dedup keys).
func (s *Scratch) StrSet(hint int) map[string]struct{} {
	if s == nil {
		return make(map[string]struct{}, hint)
	}
	s.gets++
	return s.strSet.get(hint)
}

// Reset recycles every borrowed buffer without returning the Scratch to
// the pool. All previously returned buffers become invalid.
func (s *Scratch) Reset() {
	if s == nil {
		return
	}
	puts := s.ints.pending() + s.int32s.pending() + s.bools.pending() +
		s.uint64s.pending() + s.bytes.pending() +
		s.intInt.pending() + s.intInt32.pending() + s.intBool.pending() +
		s.pairInt.pending() + s.strSet.pending()
	if puts > 0 {
		statPuts.Add(int64(puts))
	}
	if s.gets > 0 {
		statGets.Add(s.gets)
		statZeroed.Add(s.zeroed)
		s.gets, s.zeroed = 0, 0
	}
	s.ints.reset()
	s.int32s.reset()
	s.bools.reset()
	s.uint64s.reset()
	s.bytes.reset()
	s.intInt.reset()
	s.intInt32.reset()
	s.intBool.reset()
	s.pairInt.reset()
	s.strSet.reset()
}

// Release resets the Scratch and returns it to the pool. The Scratch and
// every buffer obtained from it must not be used afterwards.
func (s *Scratch) Release() {
	if s == nil {
		return
	}
	s.Reset()
	pool.Load().Put(s)
}

// enabled gates pooling globally; differential tests flip it to force the
// fresh-allocation path through every call site.
var enabled atomic.Bool

// pool holds the live sync.Pool behind an atomic pointer so Drain can swap
// in an empty one, releasing all retained buffers to the garbage collector.
var pool atomic.Pointer[sync.Pool]

func init() {
	enabled.Store(true)
	pool.Store(newPool())
}

func newPool() *sync.Pool {
	return &sync.Pool{New: func() any { return new(Scratch) }}
}

// Get returns a pooled Scratch, or nil when pooling is disabled (a nil
// Scratch is valid and allocates fresh buffers on every call).
func Get() *Scratch {
	if !enabled.Load() {
		return nil
	}
	statPoolGets.Add(1)
	return pool.Load().Get().(*Scratch)
}

// SetEnabled turns pooling on or off globally and reports the previous
// setting. Intended for tests; disabling also drains retained memory.
func SetEnabled(on bool) bool {
	prev := enabled.Swap(on)
	if !on {
		Drain()
	}
	return prev
}

// Enabled reports whether pooling is on.
func Enabled() bool { return enabled.Load() }

// Drain discards every pooled Scratch (and all buffers they retain) by
// swapping in a fresh pool. Heap profiling calls this before writing the
// profile so retained scratch does not show up as live engine state.
func Drain() {
	pool.Store(newPool())
}
