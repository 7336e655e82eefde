package assign

import (
	"reflect"
	"testing"
	"time"

	"parmem/internal/alloccache"
	"parmem/internal/duplication"
)

func roundTrip(t *testing.T, enc func(alloccache.Entry) ([]byte, error), dec func([]byte) (alloccache.Entry, error), e alloccache.Entry) alloccache.Entry {
	t.Helper()
	data, err := enc(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := dec(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestCompEntryRoundTrip(t *testing.T) {
	// Bit 63 set: the case JSON numbers cannot carry.
	e := &compEntry{
		copies:     duplication.Copies{0: 1, 7: 1 << 63, 3: (1 << 63) | 5},
		unassigned: []int{3, 7},
		atoms:      12,
	}
	got := roundTrip(t, encodeCompEntry, decodeCompEntry, e)
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, e)
	}
}

func TestCompEntryEmptyShapes(t *testing.T) {
	// CloneEntry yields a non-nil empty map and nil slices; the decoder
	// must reproduce that exact shape.
	e := &compEntry{copies: duplication.Copies{}, unassigned: nil, atoms: 0}
	got := roundTrip(t, encodeCompEntry, decodeCompEntry, e).(*compEntry)
	if got.copies == nil || len(got.copies) != 0 {
		t.Fatalf("copies = %#v, want non-nil empty", got.copies)
	}
	if got.unassigned != nil {
		t.Fatalf("unassigned = %#v, want nil", got.unassigned)
	}
	if !reflect.DeepEqual(got, e.CloneEntry()) {
		t.Fatalf("decode differs from CloneEntry shape")
	}
}

func TestAllocEntryRoundTrip(t *testing.T) {
	e := &allocEntry{al: Allocation{
		Copies:      duplication.Copies{1: 3, 2: 1 << 63},
		Unassigned:  []int{5},
		Forced:      nil,
		SingleCopy:  10,
		MultiCopy:   2,
		TotalCopies: 14,
		Atoms:       3,
		Degraded:    false,
		Phases: []PhaseReport{
			{Phase: "stor1", Method: "exhaustive", Nodes: 1234, Elapsed: 5 * time.Millisecond, Cached: true},
			{Phase: "stor2/global", Method: "coloring", Fallback: "hittingset"},
		},
	}}
	got := roundTrip(t, encodeAllocEntry, decodeAllocEntry, e)
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, e)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	e := &allocEntry{al: Allocation{
		Copies:     duplication.Copies{1: 3},
		Unassigned: []int{5, 6},
		Phases:     []PhaseReport{{Phase: "stor1", Method: "exhaustive"}},
	}}
	data, err := encodeAllocEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	decoders := map[string]func([]byte) (alloccache.Entry, error){
		"assign": decodeAllocEntry,
		"comp":   decodeCompEntry,
	}
	for name, dec := range decoders {
		// Truncations at every length must error, never panic or half-build.
		for n := 0; n < len(data); n++ {
			if _, err := dec(data[:n]); err == nil && !(name == "assign" && n == len(data)) {
				// A strict prefix can only legitimately decode at the assign
				// decoder on the full payload.
				t.Fatalf("%s decoder accepted truncation at %d", name, n)
			}
		}
		// Trailing garbage must error too.
		if _, err := dec(append(append([]byte(nil), data...), 0x7)); err == nil {
			t.Fatalf("%s decoder accepted trailing bytes", name)
		}
	}
	// Wrong format byte.
	bad := append([]byte(nil), data...)
	bad[0] = 0x7F
	if _, err := decodeAllocEntry(bad); err == nil {
		t.Fatal("accepted wrong format byte")
	}
	// A payload of another level.
	data2, _ := encodeCompEntry(&compEntry{copies: duplication.Copies{}})
	if _, err := decodeAllocEntry(data2); err == nil {
		t.Fatal("assign decoder accepted a comp payload")
	}
	if _, err := decodeCompEntry(data); err == nil {
		t.Fatal("comp decoder accepted an assign payload")
	}
	// The comp decoder's own truncations and trailing garbage.
	comp, err := encodeCompEntry(&compEntry{copies: duplication.Copies{1: 3, 4: 1 << 63}, unassigned: []int{4}, atoms: 2})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(comp); n++ {
		if _, err := decodeCompEntry(comp[:n]); err == nil {
			t.Fatalf("comp decoder accepted truncation at %d", n)
		}
	}
	if _, err := decodeCompEntry(append(append([]byte(nil), comp...), 0x7)); err == nil {
		t.Fatal("comp decoder accepted trailing bytes")
	}
}

func TestCodecsRegisteredForAllLevels(t *testing.T) {
	// The init registration is what wires the disk tier; prove each level
	// round-trips through the cache-facing registry path by exercising a
	// cache with a byte backing.
	type kv struct{ m map[string][]byte }
	back := &kv{m: map[string][]byte{}}
	backing := backingFuncs{
		get: func(k string) ([]byte, bool) { v, ok := back.m[k]; return v, ok },
		put: func(k string, v []byte) { back.m[k] = v },
	}
	c := alloccache.New(8)
	c.SetBacking(backing)

	keys := map[string]alloccache.Entry{}
	{
		k := alloccache.NewKey(nil)
		k.Str("comp")
		k.Str("x")
		keys[k.String()] = &compEntry{copies: duplication.Copies{2: 1 << 63}, unassigned: []int{1}, atoms: 1}
	}
	{
		k := alloccache.NewKey(nil)
		k.Str("assign")
		k.Str("x")
		keys[k.String()] = &allocEntry{al: Allocation{Copies: duplication.Copies{0: 1}, TotalCopies: 1, SingleCopy: 1}}
	}
	for key, e := range keys {
		c.Put(key, e)
	}
	if len(back.m) != 2 {
		t.Fatalf("backing holds %d records, want 2 (a level is missing its codec)", len(back.m))
	}
	// A cold cache over the same backing must reproduce every entry.
	c2 := alloccache.New(8)
	c2.SetBacking(backing)
	for key, want := range keys {
		got, ok := c2.Get(key)
		if !ok {
			t.Fatalf("cold cache missed %q", key[:16])
		}
		if !reflect.DeepEqual(got, want.(alloccache.Entry).CloneEntry()) {
			t.Fatalf("disk-tier entry differs:\n got %#v\nwant %#v", got, want)
		}
	}
}

type backingFuncs struct {
	get func(string) ([]byte, bool)
	put func(string, []byte)
}

func (b backingFuncs) Get(key string) ([]byte, bool) { return b.get(key) }
func (b backingFuncs) Put(key string, val []byte)    { b.put(key, val) }
