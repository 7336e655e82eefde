// Package alloccache memoizes storage-assignment results.
//
// The experiment drivers recompile the same benchmark programs dozens of
// times (Table 1 sweeps every strategy, Table 2 every module count, the
// speed-up harness both), and within one program the clique-separator
// decomposition carves out many small atoms whose conflict subgraphs
// repeat. The cache lets the assignment engine skip those repeated
// searches: a subproblem is canonicalized — its conflict graph relabeled
// in degree-sorted order and hashed — and the full problem signature is
// memoized together with its result.
//
// Correctness contract: the cache is a *pure memo*. A key embeds the exact
// subproblem — original value ids, edges, precolorings, budgets' absence —
// so a hit can only ever return the bytes the sequential engine would have
// recomputed. The canonical hash is a fast discriminator prefix (it groups
// isomorphic graphs into one bucket namespace), not a license to reuse a
// result across isomorphic-but-distinct subproblems; bit-identical output
// is part of the engine's determinism guarantee and the cache must be
// invisible to it.
//
// A Cache is safe for concurrent use: the parallel assignment engine's
// workers share one instance, and separate compilations may too. Values
// are deep-cloned on both Put and Get so no caller can mutate another's
// result.
package alloccache

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"parmem/internal/arena"
	"parmem/internal/graph"
)

// DefaultCapacity bounds a Cache built with New(0). It comfortably holds
// every distinct atom subproblem of the paper's benchmark suite across a
// full table sweep while keeping worst-case memory use small (entries are
// a few hundred bytes each).
const DefaultCapacity = 4096

// Entry is a cached payload. Implementations must deep-copy all mutable
// state in CloneEntry; the cache clones on Put and on every Get so that
// concurrent consumers never share maps or slices.
type Entry interface {
	CloneEntry() Entry
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits    int64 // Get calls that found a usable entry (either tier)
	Misses  int64 // Get calls that found nothing
	Entries int   // entries currently resident in memory
	// Levels breaks hits and misses down by memo level — the leading kind
	// string of each key (the engine's are "assign" and "comp"). Keys
	// without a decodable kind are counted under "".
	Levels map[string]LevelStats
	// BackingHits counts memory misses served by the second-level store
	// (these are included in Hits: the caller got an entry either way).
	BackingHits int64
	// BackingMisses counts second-level lookups that found nothing.
	BackingMisses int64
	// CodecErrors counts entries dropped because their level codec failed
	// to encode or decode; each such Get degrades to a miss.
	CodecErrors int64
}

// LevelStats is the hit/miss pair of one memo level.
type LevelStats struct {
	Hits   int64
	Misses int64
}

// levelCounters is the live per-level counter pair; aggregated counters
// stay atomic so Get never serializes on the stats path.
type levelCounters struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// Cache is a capacity-bounded memo table keyed by signature strings built
// with Key. Eviction is FIFO: the paper's workloads are sweep-shaped (each
// subproblem recurs throughout a run rather than clustering), so insertion
// order is as good a victim choice as recency and needs no bookkeeping on
// the Get fast path.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]Entry
	// order plus head form the FIFO eviction queue: order[head:] are the
	// live keys, oldest first. Evicting advances head instead of reslicing
	// so the backing array cannot pin evicted key strings; the consumed
	// prefix is compacted away once it dominates the array.
	order []string
	head  int

	// backing is the optional second-level byte store (the disk tier);
	// see backing.go for the read-through/write-behind composition.
	backing Backing

	hits   atomic.Int64
	misses atomic.Int64
	levels sync.Map // level string -> *levelCounters

	backingHits   atomic.Int64
	backingMisses atomic.Int64
	codecErrors   atomic.Int64
}

// New returns an empty cache holding at most capacity entries; capacity
// <= 0 means DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{cap: capacity, entries: make(map[string]Entry)}
}

// Get returns a deep copy of the entry stored under key, if any, and
// updates the hit/miss counters. On a memory miss a configured backing
// store is consulted (read-through): a decodable backing payload is
// promoted into memory and counts as a hit. A nil cache never hits.
func (c *Cache) Get(key string) (Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	b := c.backing
	c.mu.Unlock()
	lc := c.level(key)
	if !ok && b != nil {
		e, ok = c.fromBacking(b, key)
		if ok {
			c.hits.Add(1)
			lc.hits.Add(1)
			return e.CloneEntry(), true
		}
	}
	if !ok {
		c.misses.Add(1)
		lc.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	lc.hits.Add(1)
	return e.CloneEntry(), true
}

// level returns the counter pair of key's memo level, creating it on first
// use.
func (c *Cache) level(key string) *levelCounters {
	lv := KeyLevel(key)
	if lc, ok := c.levels.Load(lv); ok {
		return lc.(*levelCounters)
	}
	lc, _ := c.levels.LoadOrStore(lv, &levelCounters{})
	return lc.(*levelCounters)
}

// KeyLevel decodes the memo level of a signature built with Key: the
// leading length-prefixed kind string ("assign" or "comp" for the engine's
// keys).
// Malformed keys decode to "".
func KeyLevel(key string) string {
	if len(key) < 8 {
		return ""
	}
	n := uint64(0)
	for i := 7; i >= 0; i-- {
		n = n<<8 | uint64(key[i])
	}
	if n > uint64(len(key)-8) || n > 64 {
		return ""
	}
	return key[8 : 8+n]
}

// Put stores a deep copy of e under key, evicting the oldest entry when
// the cache is full, and writes the encoded entry behind a configured
// backing store. Overwriting an existing key refreshes its value but not
// its eviction position. A nil cache drops the entry.
func (c *Cache) Put(key string, e Entry) {
	if c == nil || e == nil {
		return
	}
	clone := e.CloneEntry()
	c.mu.Lock()
	c.storeLocked(key, clone)
	b := c.backing
	c.mu.Unlock()
	if b != nil {
		c.toBacking(b, key, e)
	}
}

// storeLocked is the memory-tier store shared by Put and the backing
// promotion path; the caller holds c.mu and passes a clone it gives up.
func (c *Cache) storeLocked(key string, clone Entry) {
	if _, exists := c.entries[key]; !exists {
		for len(c.entries) >= c.cap && c.head < len(c.order) {
			victim := c.order[c.head]
			c.order[c.head] = "" // release the key string
			c.head++
			delete(c.entries, victim)
		}
		if c.head > 32 && c.head > len(c.order)/2 {
			c.order = append(c.order[:0], c.order[c.head:]...)
			c.head = 0
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = clone
}

// Stats returns a snapshot of the effectiveness counters. The aggregate
// hit/miss pair and each level's pair are individually consistent; under
// concurrent traffic the aggregate can run slightly ahead of the level
// breakdown (each Get bumps both counters without a lock).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	s := Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n,
		BackingHits:   c.backingHits.Load(),
		BackingMisses: c.backingMisses.Load(),
		CodecErrors:   c.codecErrors.Load(),
	}
	c.levels.Range(func(k, v any) bool {
		lc := v.(*levelCounters)
		if s.Levels == nil {
			s.Levels = make(map[string]LevelStats)
		}
		s.Levels[k.(string)] = LevelStats{Hits: lc.hits.Load(), Misses: lc.misses.Load()}
		return true
	})
	return s
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CanonicalHash returns an FNV-64a hash of g's canonical form: vertices
// relabeled 0..n-1 in (degree, original id) order, then the relabeled
// weighted edge list hashed in sorted order. Graphs that differ only by a
// degree-preserving renumbering of their vertices frequently collide into
// the same hash (identical graphs always do), which makes the hash a cheap
// leading discriminator for cache keys.
func CanonicalHash(g *graph.Graph) uint64 {
	sc := arena.Get()
	defer sc.Release()
	return CanonicalHashDense(graph.FromGraphScratch(g, sc))
}

// CanonicalHashDense is CanonicalHash computed from a dense snapshot. The
// hashed byte stream is identical to the historical map-graph computation —
// dense indices ascend with original ids, so the (degree, id) canonical
// rank equals the (degree, index) rank used here — which keeps every cache
// key stable across the dense-core migration.
func CanonicalHashDense(d *graph.Dense) uint64 {
	sc := arena.Get()
	defer sc.Release()
	n := d.N()
	// Rank vertices by (degree, index): a cheap canonical order that is
	// exact for identical graphs and groups many isomorphic ones.
	order := sc.Int32s(n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := d.Deg(order[i]), d.Deg(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	label := sc.Ints(n)
	for i, v := range order {
		label[v] = i
	}
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(x int) {
		v := uint64(int64(x))
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	writeInt(n)
	type edge struct{ u, v, w int }
	edges := make([]edge, 0, d.NumEdges())
	for i := 0; i < n; i++ {
		row, wts := d.Row(int32(i)), d.WeightRow(int32(i))
		for j, nb := range row {
			if int32(i) >= nb {
				continue
			}
			u, v := label[i], label[nb]
			if u > v {
				u, v = v, u
			}
			edges = append(edges, edge{u, v, int(wts[j])})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	for _, e := range edges {
		writeInt(e.u)
		writeInt(e.v)
		writeInt(e.w)
	}
	return h.Sum64()
}

// Key builds a cache signature incrementally. Every write is
// length-delimited or fixed-width, so distinct field sequences can never
// produce the same signature bytes.
type Key struct {
	buf []byte
}

// NewKey returns a Key writing into buf (reset to length zero) — callers
// on hot paths pass an arena buffer so signature building does not grow a
// fresh allocation per call. String() copies, so the buffer may be reused
// afterwards.
func NewKey(buf []byte) Key { return Key{buf: buf[:0]} }

func (k *Key) int64(v int64) {
	u := uint64(v)
	k.buf = append(k.buf,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// Int appends one integer.
func (k *Key) Int(v int) { k.int64(int64(v)) }

// Ints appends a length-prefixed integer slice.
func (k *Key) Ints(vs []int) {
	k.int64(int64(len(vs)))
	for _, v := range vs {
		k.int64(int64(v))
	}
}

// Str appends a length-prefixed string.
func (k *Key) Str(s string) {
	k.int64(int64(len(s)))
	k.buf = append(k.buf, s...)
}

// IntMap appends a map in sorted-key order.
func (k *Key) IntMap(m map[int]int) {
	keys := make([]int, 0, len(m))
	for v := range m {
		keys = append(keys, v)
	}
	sort.Ints(keys)
	k.int64(int64(len(keys)))
	for _, v := range keys {
		k.int64(int64(v))
		k.int64(int64(m[v]))
	}
}

// Graph appends g exactly — canonical hash first (the fast discriminator),
// then the precise node and weighted edge lists with their original ids,
// which is what makes the overall signature a pure memo key.
func (k *Key) Graph(g *graph.Graph) {
	sc := arena.Get()
	defer sc.Release()
	k.GraphDense(graph.FromGraphScratch(g, sc))
}

// GraphDense is Graph from a dense snapshot, emitting byte-identical
// signature bytes: IDs() is Nodes() and the ascending CSR walk below visits
// edges in exactly Edges() order, so keys written before and after the
// dense-core migration compare equal.
func (k *Key) GraphDense(d *graph.Dense) {
	k.int64(int64(CanonicalHashDense(d)))
	k.Ints(d.IDs())
	k.int64(int64(d.NumEdges()))
	n := d.N()
	for i := 0; i < n; i++ {
		row, wts := d.Row(int32(i)), d.WeightRow(int32(i))
		for j, nb := range row {
			if int32(i) < nb {
				k.int64(int64(d.ID(int32(i))))
				k.int64(int64(d.ID(nb)))
				k.int64(int64(wts[j]))
			}
		}
	}
}

// String finalizes the signature.
func (k *Key) String() string { return string(k.buf) }
