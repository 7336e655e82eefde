package parmem

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"parmem/internal/benchprog"
)

// The golden allocation digests pin what the engine produces, not just that
// its paths agree with each other: every differential test compares one path
// with another, so a change that moves all of them the same way passes them
// all. Disk-cache records are keyed by EngineVersion, so a behaviour change
// without a version bump would let a disk-warm daemon serve allocations the
// current engine no longer produces. This test ties the two together: any
// digest change fails it, and -update refuses to rewrite digests unless
// EngineVersion differs from the file's header.
//
//	go test -run TestGoldenAllocations -update .

var updateGolden = flag.Bool("update", false, "rewrite testdata/alloc_digests.txt (only after an EngineVersion bump)")

const goldenPath = "testdata/alloc_digests.txt"

const goldenHeader = "# engine_version "

// allocDigest hashes a canonical encoding of an allocation: every value in
// ascending order with its module mask and copy count, then the
// duplication method and the degraded flag.
func allocDigest(al Allocation, method Method) string {
	vals := make([]int, 0, len(al.Copies))
	for v := range al.Copies {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		s := al.Copies[v]
		b = binary.AppendVarint(b, int64(v))
		b = binary.AppendUvarint(b, uint64(s))
		b = binary.AppendUvarint(b, uint64(s.Count()))
	}
	b = append(b, method.String()...)
	if al.Degraded {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// streamCycles is the issue-cycle count of one pass over a raw instruction
// stream: one cycle per word plus one stall per word whose operands cannot
// be fetched conflict-free. Raw streams have no program to simulate.
func streamCycles(instrs []Instruction, copies Copies) int64 {
	n := int64(len(instrs))
	for _, in := range instrs {
		if !ConflictFree(in, copies) {
			n++
		}
	}
	return n
}

func goldenLine(name string, al Allocation, method Method, cycles int64) string {
	return fmt.Sprintf("%s sha256=%s copies_total=%d sim_cycles=%d", name, allocDigest(al, method), al.TotalCopies, cycles)
}

// goldenLines computes every case, in a fixed order.
func goldenLines(t *testing.T) []string {
	ctx := context.Background()
	var lines []string
	methods := []Method{HittingSet, Backtrack}
	type config struct {
		strategy Strategy
		noAtoms  bool
		ks       []int
		methods  []Method
	}
	// Atom decomposition off runs at one k and method only: its
	// allocations seldom match a decomposed one, so each case adds a
	// simulation, and the simulations dominate the test's time.
	configs := []config{
		{STOR1, false, []int{4, 8}, methods}, {STOR2, false, []int{4, 8}, methods},
		{STOR3, false, []int{4, 8}, methods}, {PerRegion, false, []int{4, 8}, methods},
		{STOR1, true, []int{4}, methods[:1]}, {STOR2, true, []int{4}, methods[:1]},
	}

	// The six paper programs and two seeded Synthetic programs, compiled and
	// simulated under every strategy, k and method, and under STOR1 and
	// STOR2 with atom decomposition off.
	type source struct{ name, src string }
	var srcs []source
	for _, spec := range benchprog.All() {
		srcs = append(srcs, source{spec.Name, spec.Source})
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2; i++ {
		u := 2 + r.Intn(6)
		srcs = append(srcs, source{fmt.Sprintf("SYNTH%d", u), benchprog.Synthetic(u)})
	}
	// The schedule depends only on the source and k, so configurations that
	// reach the same allocation share one simulation. The simulations
	// dominate the test's time and are independent, so they run across
	// GOMAXPROCS workers.
	type compiled struct {
		name, simKey string
		al           Allocation
		method       Method
	}
	var cases []compiled
	sims := map[string]*Program{}
	for _, s := range srcs {
		for _, c := range configs {
			for _, k := range c.ks {
				for _, m := range c.methods {
					name := fmt.Sprintf("compile/%s/%v/k=%d/%v", s.name, c.strategy, k, m)
					if c.noAtoms {
						name += "/noatoms"
					}
					p, err := CompileCtx(ctx, s.src, Options{Modules: k, Strategy: c.strategy, Method: m, DisableAtoms: c.noAtoms})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					simKey := fmt.Sprintf("%s/%d/%s", s.name, k, allocDigest(p.Alloc, m))
					if sims[simKey] == nil {
						sims[simKey] = p
					}
					cases = append(cases, compiled{name, simKey, p.Alloc, m})
				}
			}
		}
	}
	cycles := simulateAll(t, sims)
	for _, c := range cases {
		lines = append(lines, goldenLine(c.name, c.al, c.method, cycles[c.simKey]))
	}

	// The benchprog raw-stream families: a chain past the flat-bitset
	// ceiling (blocked representation) and conflict-heavy clusters.
	streams := []struct {
		name   string
		instrs [][]int
	}{
		{"chains/1x2100w4", benchprog.ChainInstrs(1, 2100, 4)},
		{"chains/6x40w3", benchprog.ChainInstrs(6, 40, 3)},
		{"clusters/4x12w4", benchprog.ClusterInstrs(4, 12, 4)},
	}
	for _, s := range streams {
		instrs := toInstrs(s.instrs)
		for _, k := range []int{4, 8} {
			for _, m := range methods {
				name := fmt.Sprintf("assign/%s/k=%d/%v", s.name, k, m)
				al, err := AssignValues(ctx, instrs, AssignConfig{K: k, Method: m})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				lines = append(lines, goldenLine(name, al, m, streamCycles(instrs, al.Copies)))
			}
		}
	}

	// One seeded delta sequence: each edit replaces one instruction of the
	// previous result with operands drawn from the existing values.
	base := toInstrs(append(benchprog.ClusterInstrs(3, 10, 4), benchprog.ChainInstrs(2, 30, 4)...))
	cfg := AssignConfig{K: 8}
	res, err := AssignValuesIncremental(ctx, base, cfg)
	if err != nil {
		t.Fatalf("delta/base: %v", err)
	}
	lines = append(lines, goldenLine("delta/base", res.Alloc, cfg.Method, streamCycles(base, res.Alloc.Copies)))
	nvals := 3*10 + 2*30
	dr := rand.New(rand.NewSource(1))
	for step := 0; step < 6; step++ {
		instr := make(Instruction, 0, 4)
		for _, v := range dr.Perm(nvals)[:2+dr.Intn(3)] {
			instr = append(instr, v+1)
		}
		d := Delta{Changed: []ChangedInstruction{{Index: dr.Intn(res.NumInstructions()), Instr: instr}}}
		if res, err = AssignValuesDelta(ctx, res, d, cfg); err != nil {
			t.Fatalf("delta/%d: %v", step, err)
		}
		lines = append(lines, goldenLine(fmt.Sprintf("delta/%d", step), res.Alloc, cfg.Method, streamCycles(res.Instructions(), res.Alloc.Copies)))
	}
	return lines
}

// simulateAll runs every program once and returns its cycle count by key.
func simulateAll(t *testing.T, progs map[string]*Program) map[string]int64 {
	keys := make(chan string)
	var mu sync.Mutex
	cycles := make(map[string]int64, len(progs))
	var errs []error
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range keys {
				res, err := progs[key].RunCtx(context.Background(), RunOptions{})
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("%s: run: %w", key, err))
				} else {
					cycles[key] = res.Cycles
				}
				mu.Unlock()
			}
		}()
	}
	for key := range progs {
		keys <- key
	}
	close(keys)
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	if len(errs) > 0 {
		t.FailNow()
	}
	return cycles
}

func toInstrs(rows [][]int) []Instruction {
	out := make([]Instruction, len(rows))
	for i, r := range rows {
		out[i] = Instruction(r)
	}
	return out
}

// readGolden returns the header's engine version and the digest lines; a
// missing file reads as version "" with no lines.
func readGolden(t *testing.T) (string, []string) {
	f, err := os.Open(goldenPath)
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var version string
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, goldenHeader); ok {
			version = v
			continue
		}
		if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return version, lines
}

func TestGoldenAllocations(t *testing.T) {
	version, want := readGolden(t)
	if *updateGolden && version == EngineVersion {
		t.Fatalf("refusing to rewrite %s: EngineVersion is still %q; bump it in cachestore.go when allocations change", goldenPath, EngineVersion)
	}
	got := goldenLines(t)
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# Golden allocation digests; regenerate with: go test -run TestGoldenAllocations -update .\n")
		sb.WriteString(goldenHeader + EngineVersion + "\n")
		for _, l := range got {
			sb.WriteString(l + "\n")
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if version != EngineVersion {
		t.Fatalf("%s was generated for EngineVersion %q, the engine is %q; rerun with -update", goldenPath, version, EngineVersion)
	}
	wantSet := make(map[string]string, len(want))
	for _, l := range want {
		wantSet[strings.Fields(l)[0]] = l
	}
	for _, l := range got {
		name := strings.Fields(l)[0]
		w, ok := wantSet[name]
		switch {
		case !ok:
			t.Errorf("case %s missing from %s", name, goldenPath)
		case w != l:
			t.Errorf("allocation changed:\n got %s\nwant %s", l, w)
		}
		delete(wantSet, name)
	}
	for name := range wantSet {
		t.Errorf("golden case %s is no longer computed", name)
	}
}
