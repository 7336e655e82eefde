package alloccache

import (
	"fmt"
	"sync"
	"testing"

	"parmem/internal/graph"
)

// testEntry is a mutable payload used to prove the cache deep-clones.
type testEntry struct {
	vals map[int]int
}

func (e *testEntry) CloneEntry() Entry {
	c := &testEntry{vals: make(map[int]int, len(e.vals))}
	for k, v := range e.vals {
		c.vals[k] = v
	}
	return c
}

func TestGetPutAndStats(t *testing.T) {
	c := New(8)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", &testEntry{vals: map[int]int{1: 2}})
	e, ok := c.Get("a")
	if !ok {
		t.Fatal("miss after Put")
	}
	if e.(*testEntry).vals[1] != 2 {
		t.Fatalf("wrong payload: %v", e)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1/1/1", st)
	}
}

func TestClonesIsolateCallers(t *testing.T) {
	c := New(8)
	orig := &testEntry{vals: map[int]int{1: 2}}
	c.Put("k", orig)
	orig.vals[1] = 99 // mutating after Put must not affect the cache

	got1, _ := c.Get("k")
	got1.(*testEntry).vals[1] = 77 // mutating a Get result must not either

	got2, _ := c.Get("k")
	if v := got2.(*testEntry).vals[1]; v != 2 {
		t.Fatalf("cache entry mutated through a caller: got %d, want 2", v)
	}
}

func TestFIFOEviction(t *testing.T) {
	c := New(2)
	c.Put("a", &testEntry{vals: map[int]int{}})
	c.Put("b", &testEntry{vals: map[int]int{}})
	c.Put("c", &testEntry{vals: map[int]int{}}) // evicts "a"
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("second entry evicted too early")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("newest entry missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	c.Put("k", &testEntry{vals: map[int]int{}})
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 || st.Levels != nil {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache non-empty")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%32)
				c.Put(key, &testEntry{vals: map[int]int{i: w}})
				if e, ok := c.Get(key); ok {
					e.(*testEntry).vals[0] = -1 // must be a private clone
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

func TestCanonicalHashInvariantUnderRelabeling(t *testing.T) {
	// A path 1-2-3 and the degree-preserving relabeling 10-20-30 must
	// collide; changing the structure (a triangle) must not.
	path := graph.New()
	path.AddEdge(1, 2, 1)
	path.AddEdge(2, 3, 1)

	relabeled := graph.New()
	relabeled.AddEdge(10, 20, 1)
	relabeled.AddEdge(20, 30, 1)

	tri := graph.New()
	tri.AddEdge(1, 2, 1)
	tri.AddEdge(2, 3, 1)
	tri.AddEdge(1, 3, 1)

	if CanonicalHash(path) != CanonicalHash(relabeled) {
		t.Fatal("isomorphic relabeled path hashed differently")
	}
	if CanonicalHash(path) == CanonicalHash(tri) {
		t.Fatal("path and triangle collided")
	}
}

func TestKeyEncodingUnambiguous(t *testing.T) {
	// Same flattened integers, different field boundaries — distinct keys.
	var a, b Key
	a.Ints([]int{1, 2})
	a.Ints(nil)
	b.Ints([]int{1})
	b.Ints([]int{2})
	if a.String() == b.String() {
		t.Fatal("length-prefixed encodings collided")
	}

	var k1, k2 Key
	k1.Str("ab")
	k2.Str("a")
	k2.Str("b")
	if k1.String() == k2.String() {
		t.Fatal("string encodings collided")
	}
}
