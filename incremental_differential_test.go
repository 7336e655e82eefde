package parmem

// Differential testing of the incremental recompilation engine: every
// delta allocation must be bit-identical to a cold full recompile
// of the edited instruction stream — across random edit sequences that
// add, remove and change instructions (including edits that split and
// merge conflict components), at workers=1 and workers=4, and across the
// flat, blocked and CSR bitset representations of the dirty region's
// dense snapshot. Phases are excluded from the comparison: an incremental run
// honestly reports the (smaller) work it did, everything else must match
// bit for bit.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"parmem/internal/benchprog"
	"parmem/internal/graph"
)

// incrFingerprint is allocFingerprint without the phase names: the
// determinism-relevant allocation payload.
type incrFingerprint struct {
	Copies      map[int]uint64
	Unassigned  []int
	Forced      []int
	SingleCopy  int
	MultiCopy   int
	TotalCopies int
	Atoms       int
	Degraded    bool
}

func incrFP(al Allocation) incrFingerprint {
	fp := incrFingerprint{
		Copies:      make(map[int]uint64, len(al.Copies)),
		Unassigned:  al.Unassigned,
		Forced:      al.Forced,
		SingleCopy:  al.SingleCopy,
		MultiCopy:   al.MultiCopy,
		TotalCopies: al.TotalCopies,
		Atoms:       al.Atoms,
		Degraded:    al.Degraded,
	}
	if fp.Unassigned == nil {
		fp.Unassigned = []int{}
	}
	if fp.Forced == nil {
		fp.Forced = []int{}
	}
	for v, s := range al.Copies {
		fp.Copies[v] = uint64(s)
	}
	return fp
}

// randInstr builds a random instruction over a blocky value space: values
// are grouped into blocks of blockSize, an instruction usually draws all
// its operands from one block (keeping components small and plentiful) and
// occasionally bridges two blocks — the edits that later remove or rewrite
// such a bridge split components, and the ones that add it merge them.
func randInstr(rng *rand.Rand, blocks, blockSize, width int) Instruction {
	pickBlock := rng.Intn(blocks)
	in := make(Instruction, 0, width)
	n := 2 + rng.Intn(width-1)
	for j := 0; j < n; j++ {
		b := pickBlock
		if rng.Intn(8) == 0 { // bridge
			b = rng.Intn(blocks)
		}
		in = append(in, b*blockSize+rng.Intn(blockSize))
	}
	return in
}

// randDelta builds a random edit against a stream of length n: a mix of
// changes, removals and additions. It always leaves at least one
// instruction behind.
func randDelta(rng *rand.Rand, n, blocks, blockSize, width int) Delta {
	var d Delta
	used := map[int]bool{}
	edits := 1 + rng.Intn(3)
	for e := 0; e < edits; e++ {
		switch rng.Intn(3) {
		case 0: // change
			idx := rng.Intn(n)
			if used[idx] {
				continue
			}
			used[idx] = true
			d.Changed = append(d.Changed, ChangedInstruction{
				Index: idx,
				Instr: randInstr(rng, blocks, blockSize, width),
			})
		case 1: // remove
			idx := rng.Intn(n)
			if used[idx] || n-len(d.Removed) <= 1 {
				continue
			}
			used[idx] = true
			d.Removed = append(d.Removed, idx)
		default: // add
			d.Added = append(d.Added, randInstr(rng, blocks, blockSize, width))
		}
	}
	return d
}

// applyDeltaRef is the oracle edit: apply d to instrs by the documented
// rule (Changed in place, Removed deleted, Added appended).
func applyDeltaRef(instrs []Instruction, d Delta) []Instruction {
	removed := map[int]bool{}
	for _, i := range d.Removed {
		removed[i] = true
	}
	changed := map[int]Instruction{}
	for _, c := range d.Changed {
		changed[c.Index] = c.Instr
	}
	var out []Instruction
	for i, in := range instrs {
		if removed[i] {
			continue
		}
		if ni, ok := changed[i]; ok {
			out = append(out, append(Instruction(nil), ni...))
			continue
		}
		out = append(out, append(Instruction(nil), in...))
	}
	for _, in := range d.Added {
		out = append(out, append(Instruction(nil), in...))
	}
	return out
}

// TestIncrementalDifferential drives the corpus through random delta
// sequences, asserting at every step that the incremental allocation is
// bit-identical to a cold AssignValues of the edited stream, for both
// duplication methods, workers=1 and 4, and all three bitset kinds.
func TestIncrementalDifferential(t *testing.T) {
	kinds := []struct {
		name          string
		flat, blocked int
	}{
		{"flat", graph.DenseBitsetMaxN, graph.BlockedBitsetMaxN},
		{"blocked", 8, graph.BlockedBitsetMaxN},
		{"csr", 0, 0},
	}
	type seedProg struct {
		name                     string
		instrs                   []Instruction
		blocks, blockSize, width int
	}
	var corpus []seedProg
	// Random blocky programs: many small components plus occasional bridges.
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var instrs []Instruction
		for i := 0; i < 50+rng.Intn(40); i++ {
			instrs = append(instrs, randInstr(rng, 6, 8, 4))
		}
		corpus = append(corpus, seedProg{
			name: "rand", instrs: instrs, blocks: 6, blockSize: 8, width: 4,
		})
	}
	// Deterministic multi-component workloads from the benchmark families.
	corpus = append(corpus,
		seedProg{name: "chains", instrs: toInstructions(benchprog.ChainInstrs(4, 24, 4)),
			blocks: 4, blockSize: 24, width: 4},
		seedProg{name: "clusters", instrs: toInstructions(benchprog.ClusterInstrs(5, 12, 4)),
			blocks: 5, blockSize: 12, width: 4},
	)

	steps := 6
	if testing.Short() {
		steps = 3
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			restore := graph.SetBitsetCeilings(kind.flat, kind.blocked)
			defer restore()
			for pi, prog := range corpus {
				for _, method := range []Method{HittingSet, Backtrack} {
					for _, workers := range []int{1, 4} {
						if testing.Short() && (method == Backtrack || workers == 4) && kind.name != "flat" {
							continue
						}
						cfg := AssignConfig{K: 6, Method: method, Workers: workers}
						rng := rand.New(rand.NewSource(int64(1000*pi) + int64(workers) + int64(method)*7))
						res, err := AssignValuesIncremental(context.Background(), prog.instrs, cfg)
						if err != nil {
							t.Fatalf("%s/%v/w%d: cold incremental: %v", prog.name, method, workers, err)
						}
						cold, err := AssignValues(context.Background(), prog.instrs, cfg)
						if err != nil {
							t.Fatalf("%s/%v/w%d: cold full: %v", prog.name, method, workers, err)
						}
						if got, want := incrFP(res.Alloc), incrFP(cold); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%v/w%d: cold incremental != cold full:\n got %+v\nwant %+v",
								prog.name, method, workers, got, want)
						}
						stream := append([]Instruction(nil), prog.instrs...)
						for step := 0; step < steps; step++ {
							d := randDelta(rng, len(stream), prog.blocks, prog.blockSize, prog.width)
							stream = applyDeltaRef(stream, d)
							res, err = AssignValuesDelta(context.Background(), res, d, cfg)
							if err != nil {
								t.Fatalf("%s/%v/w%d step %d: delta: %v", prog.name, method, workers, step, err)
							}
							if got := res.Instructions(); !reflect.DeepEqual(got, stream) {
								t.Fatalf("%s/%v/w%d step %d: edited stream mismatch", prog.name, method, workers, step)
							}
							cold, err := AssignValues(context.Background(), stream, cfg)
							if err != nil {
								t.Fatalf("%s/%v/w%d step %d: cold: %v", prog.name, method, workers, step, err)
							}
							if got, want := incrFP(res.Alloc), incrFP(cold); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/%v/w%d step %d: incremental != cold:\n got %+v\nwant %+v\ndelta %+v",
									prog.name, method, workers, step, got, want, d)
							}
						}
					}
				}
			}
		})
	}
}

// TestIncrementalReuse pins the economics: a single-instruction edit on a
// multi-component workload must leave most components untouched and reuse
// them, and a shared cache store must serve repeated (oscillating) edits
// from the "comp" level.
func TestIncrementalReuse(t *testing.T) {
	instrs := toInstructions(benchprog.ChainInstrs(6, 30, 4))
	cfg := AssignConfig{K: 6, Workers: 1}
	res, err := AssignValuesIncremental(context.Background(), instrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental.Components != 6 {
		t.Fatalf("components = %d, want 6", res.Incremental.Components)
	}
	if !res.Incremental.Full {
		t.Fatalf("cold run must report Full")
	}
	// Rewrite one instruction inside component 0. Dropping value 3 from the
	// clique {0,1,2,3} severs {0,1,2} from the rest of the chain, so the edit
	// splits component 0 in two — both halves dirty, the other 5 chains reused.
	d := Delta{Changed: []ChangedInstruction{{Index: 0, Instr: Instruction{0, 1, 2}}}}
	res2, err := AssignValuesDelta(context.Background(), res, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res2.Incremental
	if st.Full {
		t.Fatalf("delta run reported Full: %+v", st)
	}
	if st.Components != 7 || st.Dirty != 2 || st.Reused != 5 {
		t.Fatalf("components/dirty/reused = %d/%d/%d, want 7/2/5 (%+v)",
			st.Components, st.Dirty, st.Reused, st)
	}
	// The base result must remain a valid fork point after the delta.
	d2 := Delta{Added: []Instruction{{0, 3, 5}}}
	if _, err := AssignValuesDelta(context.Background(), res, d2, cfg); err != nil {
		t.Fatalf("forking from the base after a delta: %v", err)
	}

	// Oscillating edit with a shared store: the second return to a prior
	// component shape must hit the "comp" cache level.
	store, err := OpenCacheStore(CacheConfig{MemoryEntries: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ccfg := cfg
	ccfg.Store = store
	cres, err := AssignValuesIncremental(context.Background(), instrs, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	flip := Delta{Changed: []ChangedInstruction{{Index: 0, Instr: Instruction{0, 1, 2}}}}
	flipped, err := AssignValuesDelta(context.Background(), cres, flip, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip back: the dirty component's shape equals the original, which the
	// cold run memoized.
	back := Delta{Changed: []ChangedInstruction{{Index: 0, Instr: instrs[0]}}}
	restored, err := AssignValuesDelta(context.Background(), flipped, back, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Incremental.CacheHits == 0 {
		t.Fatalf("oscillating edit missed the comp cache: %+v", restored.Incremental)
	}
	if got, want := incrFP(restored.Alloc), incrFP(cres.Alloc); !reflect.DeepEqual(got, want) {
		t.Fatalf("flip-back allocation differs from the original")
	}
}

// TestIncrementalCompHitsMatchCold: an incremental cold solve whose
// program shares all but one component with an earlier one serves the
// shared components from the "comp" level, colors and duplicates only the
// new one, and returns exactly the cold allocation — for both methods, one
// worker and a pool. AssignValues keeps no per-component records, so it
// never touches the level.
func TestIncrementalCompHitsMatchCold(t *testing.T) {
	ctx := context.Background()
	first := toInstructions(benchprog.ChainInstrs(6, 30, 4))
	second := append([]Instruction{{0, 1, 2}}, first[1:]...)
	for _, method := range []Method{HittingSet, Backtrack} {
		for _, workers := range []int{1, 3} {
			cfg := AssignConfig{K: 6, Method: method, Workers: workers}
			cold, err := AssignValues(ctx, second, cfg)
			if err != nil {
				t.Fatal(err)
			}
			store := memStore(t)
			cfg.Store = store
			if _, err := AssignValues(ctx, first, cfg); err != nil {
				t.Fatal(err)
			}
			if ls, ok := store.Stats().Levels["comp"]; ok {
				t.Fatalf("%v/w%d: AssignValues used the comp level: %+v", method, workers, ls)
			}
			if _, err := AssignValuesIncremental(ctx, first, cfg); err != nil {
				t.Fatal(err)
			}
			warm, err := AssignValuesIncremental(ctx, second, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st := warm.Incremental; st.CacheHits == 0 || st.CacheHits >= st.Components {
				t.Fatalf("%v/w%d: want all but the edited component served from the comp level, got %+v", method, workers, st)
			}
			warm.Alloc.Phases, cold.Phases = nil, nil
			if !reflect.DeepEqual(warm.Alloc, cold) {
				t.Fatalf("%v/w%d: comp-level hits changed the allocation\ngot:  %+v\nwant: %+v", method, workers, warm.Alloc, cold)
			}
		}
	}
}

// TestIncrementalDeltaValidation covers the delta-API error paths: bad
// indices, conflicting edits, config mismatches, oversized instructions.
func TestIncrementalDeltaValidation(t *testing.T) {
	instrs := []Instruction{{1, 2}, {2, 3}}
	cfg := AssignConfig{K: 4}
	res, err := AssignValuesIncremental(context.Background(), instrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssignValuesDelta(context.Background(), res, Delta{Removed: []int{7}}, cfg); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
	if _, err := AssignValuesDelta(context.Background(), res, Delta{
		Removed: []int{0},
		Changed: []ChangedInstruction{{Index: 0, Instr: Instruction{1}}},
	}, cfg); err == nil {
		t.Fatal("remove+change of one index accepted")
	}
	if _, err := AssignValuesDelta(context.Background(), res, Delta{
		Added: []Instruction{{1, 2, 3, 4, 5}},
	}, cfg); err == nil {
		t.Fatal("instruction wider than K accepted")
	}
	if _, err := AssignValuesDelta(context.Background(), res, Delta{}, AssignConfig{K: 8}); err == nil {
		t.Fatal("K mismatch accepted")
	}
	if _, err := AssignValuesDelta(context.Background(), res, Delta{}, AssignConfig{K: 4, Strategy: STOR2}); err == nil {
		t.Fatal("non-STOR1 delta accepted")
	}
	if _, err := AssignValuesIncremental(context.Background(), instrs, AssignConfig{K: 4, Strategy: STOR3}); err == nil {
		t.Fatal("non-STOR1 incremental accepted")
	}
	if _, err := AssignValuesDelta(context.Background(), nil, Delta{}, cfg); err == nil {
		t.Fatal("nil prior result accepted")
	}
	// An empty delta is legal and must reuse everything.
	same, err := AssignValuesDelta(context.Background(), res, Delta{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if same.Incremental.Dirty != 0 {
		t.Fatalf("empty delta dirtied %d components", same.Incremental.Dirty)
	}
}
