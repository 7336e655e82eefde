package parmem

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"parmem/internal/benchprog"
)

func TestOpenCacheStoreRejectsBadConfig(t *testing.T) {
	cases := []CacheConfig{
		{MemoryEntries: -1},
		{DiskPath: t.TempDir(), MaxDiskBytes: -1},
		{ReadOnly: true}, // read-only without a disk path
	}
	for _, cfg := range cases {
		if _, err := OpenCacheStore(cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("OpenCacheStore(%+v) = %v, want ErrConfig", cfg, err)
		}
	}
}

func TestMemoryOnlyCacheStore(t *testing.T) {
	st, err := OpenCacheStore(CacheConfig{MemoryEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := st.DiskStats(); ok {
		t.Fatal("memory-only store reports a disk tier")
	}
	src := benchprog.All()[0].Source
	if _, err := Compile(src, Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(src, Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Hits == 0 {
		t.Fatalf("no memory hits on recompile: %+v", s)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDiskCacheStoreSurvivesRestart is the headline behavior: a program
// compiled under one store is served as a second-level hit by a fresh
// store (a restarted process) over the same cache directory, with an
// allocation identical to a cold compile.
func TestDiskCacheStoreSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	spec := benchprog.All()[0]
	opt := Options{Workers: 1}

	cold, err := Compile(spec.Source, opt)
	if err != nil {
		t.Fatal(err)
	}

	st1, err := OpenCacheStore(CacheConfig{DiskPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm := opt
	warm.Store = st1
	if _, err := Compile(spec.Source, warm); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// "Restart": a brand-new store over the same directory, empty memory.
	st2, err := OpenCacheStore(CacheConfig{DiskPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm.Store = st2
	p, err := Compile(spec.Source, warm)
	if err != nil {
		t.Fatal(err)
	}
	stats := st2.Stats()
	if stats.BackingHits == 0 {
		t.Fatalf("restarted store served no disk hits: %+v", stats)
	}
	ds, ok := st2.DiskStats()
	if !ok || ds.Hits == 0 {
		t.Fatalf("disk tier reports no hits: %+v (ok=%v)", ds, ok)
	}
	aw, ac := p.Alloc, cold.Alloc
	aw.Phases, ac.Phases = nil, nil // wall-clock timings differ
	if !reflect.DeepEqual(aw, ac) {
		t.Fatalf("disk-warm allocation differs from cold compile\nwarm: %+v\ncold: %+v", aw, ac)
	}
	// The simulated program must still compute the right answer.
	res, err := p.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Check(res); err != nil {
		t.Fatalf("semantic check after disk-warm compile: %v", err)
	}
}

// memStore opens a memory-only CacheStore.
func memStore(tb testing.TB) CacheStore {
	tb.Helper()
	st, err := OpenCacheStore(CacheConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func TestReadOnlyStoreServesButNeverWrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	spec := benchprog.All()[0]

	w, err := OpenCacheStore(CacheConfig{DiskPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(spec.Source, Options{Store: w, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenCacheStore(CacheConfig{DiskPath: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := Compile(spec.Source, Options{Store: r, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.BackingHits == 0 {
		t.Fatalf("read-only store served no disk hits: %+v", st)
	}
	ds, _ := r.DiskStats()
	if !ds.ReadOnly {
		t.Fatalf("disk tier not read-only: %+v", ds)
	}
	if ds.Puts != 0 {
		t.Fatalf("read-only tier wrote records: %+v", ds)
	}
}
