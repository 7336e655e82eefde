package parmem

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parmem/internal/benchprog"
)

// Differential safety of the persistent cache tier, end to end: whatever
// happens to the bytes on disk — bit flips anywhere in the log, torn
// tails, a missing header — a compile over that directory must produce
// exactly the allocation a cold compile produces. Corruption is allowed
// to cost hits (the damaged records miss and the work is redone), never
// to change a result.

// compileCorpusCold compiles every benchmark program with no cache at
// all; the returned allocations are the ground truth the cached paths
// are held to. Workers:1 keeps the pipeline deterministic.
func compileCorpusCold(t *testing.T) []Allocation {
	t.Helper()
	out := make([]Allocation, len(benchprog.All()))
	for i, spec := range benchprog.All() {
		p, err := Compile(spec.Source, Options{Workers: 1})
		if err != nil {
			t.Fatalf("cold compile %s: %v", spec.Name, err)
		}
		out[i] = p.Alloc
	}
	return out
}

// compileCorpusWith compiles the corpus through the given store and
// checks every allocation against the cold ground truth.
func compileCorpusWith(t *testing.T, st CacheStore, cold []Allocation, label string) {
	t.Helper()
	for i, spec := range benchprog.All() {
		p, err := Compile(spec.Source, Options{Workers: 1, Store: st})
		if err != nil {
			t.Fatalf("%s: compile %s: %v", label, spec.Name, err)
		}
		got, want := p.Alloc, cold[i]
		got.Phases, want.Phases = nil, nil // wall-clock timings differ
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s allocation differs from cold compile\ngot:  %+v\nwant: %+v",
				label, spec.Name, got, want)
		}
	}
}

// TestDiskWarmCorpusMatchesCold: the whole corpus compiled through a
// restarted store is served from disk and every allocation is identical
// to a cold compile.
func TestDiskWarmCorpusMatchesCold(t *testing.T) {
	cold := compileCorpusCold(t)
	dir := filepath.Join(t.TempDir(), "cache")

	st1, err := OpenCacheStore(CacheConfig{DiskPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	compileCorpusWith(t, st1, cold, "populate")
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenCacheStore(CacheConfig{DiskPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	compileCorpusWith(t, st2, cold, "disk-warm")
	if s := st2.Stats(); s.BackingHits == 0 {
		t.Fatalf("restarted store served no disk hits over the corpus: %+v", s)
	}
}

// TestDiskWarmDeltaMatchesCold: the comp level persists across restarts.
// A populating run memoizes every component on disk; after a restart over
// the same directory, a delta whose dirty component has a memoized shape is
// served from disk, and the result equals a cold AssignValues bit for bit.
func TestDiskWarmDeltaMatchesCold(t *testing.T) {
	ctx := context.Background()
	instrs := toInstructions(benchprog.ChainInstrs(6, 30, 4))
	cfg := AssignConfig{K: 6, Workers: 1}
	cold, err := AssignValues(ctx, instrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cache")
	st1, err := OpenCacheStore(CacheConfig{DiskPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Store = st1
	if _, err := AssignValuesIncremental(ctx, instrs, pcfg); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// An uncached base whose first component is split; the delta restores
	// it, so its dirty component is the memoized original.
	split := append([]Instruction{{0, 1, 2}}, instrs[1:]...)
	base, err := AssignValuesIncremental(ctx, split, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := OpenCacheStore(CacheConfig{DiskPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	wcfg := cfg
	wcfg.Store = st2
	back := Delta{Changed: []ChangedInstruction{{Index: 0, Instr: instrs[0]}}}
	res, err := AssignValuesDelta(ctx, base, back, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental.CacheHits == 0 || res.Incremental.Full {
		t.Fatalf("restored component not served from the cache: %+v", res.Incremental)
	}
	if s := st2.Stats(); s.BackingHits == 0 {
		t.Fatalf("restarted store served no disk hits: %+v", s)
	}
	got := res.Alloc
	got.Phases, cold.Phases = nil, nil // wall-clock timings differ
	if !reflect.DeepEqual(got, cold) {
		t.Fatalf("disk-warm delta differs from cold AssignValues\ngot:  %+v\nwant: %+v", got, cold)
	}
}

// TestCorruptedDiskNeverYieldsWrongAllocation: random bit flips and torn
// tails over a populated log never change a compile result. Every seed
// must open cleanly and reproduce the cold corpus exactly.
func TestCorruptedDiskNeverYieldsWrongAllocation(t *testing.T) {
	cold := compileCorpusCold(t)

	seedDir := filepath.Join(t.TempDir(), "cache")
	st, err := OpenCacheStore(CacheConfig{DiskPath: seedDir})
	if err != nil {
		t.Fatal(err)
	}
	compileCorpusWith(t, st, cold, "populate")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(seedDir, "*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("expected one log file, got %v (%v)", logs, err)
	}
	pristine, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	logName := filepath.Base(logs[0])

	var detected int64
	for seed := 0; seed < 8; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		data := append([]byte(nil), pristine...)
		label := "bitflip"
		if seed >= 6 {
			// Torn tail: the log stops mid-record, as after a crash.
			data = data[:1+rng.Intn(len(data)-1)]
			label = "torn"
		} else {
			for n := 1 + rng.Intn(24); n > 0; n-- {
				data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cst, err := OpenCacheStore(CacheConfig{DiskPath: dir})
		if err != nil {
			t.Fatalf("seed %d (%s): corrupted log must still open: %v", seed, label, err)
		}
		compileCorpusWith(t, cst, cold, label)
		if ds, ok := cst.DiskStats(); ok {
			detected += ds.CorruptGets
		}
		if err := cst.Close(); err != nil {
			t.Fatalf("seed %d (%s): close: %v", seed, label, err)
		}
	}
	t.Logf("corrupt records caught at Get across seeds: %d", detected)
}
