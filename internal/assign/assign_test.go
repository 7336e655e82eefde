package assign

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parmem/internal/coloring"
	"parmem/internal/conflict"
	"parmem/internal/graph"
	"parmem/internal/telemetry"
)

func fig1Program() Program {
	return Program{Instrs: []conflict.Instruction{{1, 2, 4}, {2, 3, 5}, {2, 3, 4}}}
}

func TestAssignFig1NoDuplication(t *testing.T) {
	al, err := Assign(fig1Program(), Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if bad := Verify(fig1Program(), al); bad != nil {
		t.Fatalf("conflicting instructions: %v", bad)
	}
	if al.MultiCopy != 0 || al.SingleCopy != 5 {
		t.Fatalf("single=%d multi=%d, want 5/0", al.SingleCopy, al.MultiCopy)
	}
}

func TestAssignSection2NeedsOneDuplicate(t *testing.T) {
	p := Program{Instrs: []conflict.Instruction{
		{1, 2, 4}, {2, 3, 5}, {2, 3, 4}, {2, 4, 5},
	}}
	for _, m := range []Method{HittingSet, Backtrack} {
		al, err := Assign(p, Options{K: 3, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if bad := Verify(p, al); bad != nil {
			t.Fatalf("%v: conflicts %v", m, bad)
		}
		if al.MultiCopy > 1 {
			t.Fatalf("%v: multi-copy values = %d, paper needs 1", m, al.MultiCopy)
		}
	}
}

func TestAssignErrors(t *testing.T) {
	if _, err := Assign(fig1Program(), Options{K: 0}); err == nil {
		t.Fatal("K=0 must fail")
	}
	// Instruction with more operands than modules is unschedulable.
	p := Program{Instrs: []conflict.Instruction{{1, 2, 3, 4}}}
	if _, err := Assign(p, Options{K: 3}); err == nil {
		t.Fatal("4 operands / 3 modules must fail validation")
	}
	if _, err := Assign(fig1Program(), Options{K: 3, Strategy: Strategy(99)}); err == nil {
		t.Fatal("unknown strategy must fail")
	}
}

func TestStrategyAndMethodStrings(t *testing.T) {
	if STOR1.String() != "STOR1" || STOR2.String() != "STOR2" || STOR3.String() != "STOR3" {
		t.Fatal("strategy names")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy must still print")
	}
	if HittingSet.String() != "hittingset" || Backtrack.String() != "backtrack" {
		t.Fatal("method names")
	}
}

// buildWorkload makes a deterministic pseudo-program with regions and
// globals for strategy tests.
func buildWorkload(seed int64, nvals, ninstr, k, nregions int) Program {
	r := rand.New(rand.NewSource(seed))
	p := Program{Global: map[int]bool{}}
	nglobals := nvals / 4
	for i := 0; i < ninstr; i++ {
		region := i * nregions / ninstr
		// Realistic three-address shape: instructions fetch 2-3 scalar
		// operands (the paper's machine has k=8 modules against 3-operand
		// instructions). Cap at k for tiny module counts.
		nops := 2 + r.Intn(2)
		if nops > k {
			nops = k
		}
		set := map[int]bool{}
		for len(set) < nops {
			if r.Intn(3) == 0 && nglobals > 0 {
				set[1+r.Intn(nglobals)] = true // global ids 1..nglobals
			} else {
				// Region-local ids partitioned per region.
				base := nglobals + 1 + region*nvals
				set[base+r.Intn(nvals-nglobals)] = true
			}
		}
		var in conflict.Instruction
		for v := range set {
			in = append(in, v)
		}
		p.Instrs = append(p.Instrs, in)
		p.RegionOf = append(p.RegionOf, region)
	}
	for g := 1; g <= nglobals; g++ {
		p.Global[g] = true
	}
	return p
}

func TestAllStrategiesConflictFree(t *testing.T) {
	p := buildWorkload(42, 24, 60, 4, 3)
	for _, s := range []Strategy{STOR1, STOR2, STOR3} {
		for _, m := range []Method{HittingSet, Backtrack} {
			al, err := Assign(p, Options{K: 4, Strategy: s, Method: m})
			if err != nil {
				t.Fatalf("%v/%v: %v", s, m, err)
			}
			if bad := Verify(p, al); bad != nil {
				t.Fatalf("%v/%v: conflicting instructions %v", s, m, bad)
			}
		}
	}
}

func TestSTOR1UsuallyNoWorseThanSTOR3(t *testing.T) {
	// The paper's central empirical claim: restricting the conflict graph
	// (STOR2/STOR3) increases duplication; STOR1 duplicates the least.
	// Check on several seeds in aggregate.
	var s1, s3 int
	for seed := int64(0); seed < 8; seed++ {
		p := buildWorkload(seed, 20, 50, 4, 3)
		a1, err := Assign(p, Options{K: 4, Strategy: STOR1})
		if err != nil {
			t.Fatal(err)
		}
		a3, err := Assign(p, Options{K: 4, Strategy: STOR3})
		if err != nil {
			t.Fatal(err)
		}
		s1 += a1.MultiCopy
		s3 += a3.MultiCopy
	}
	if s1 > s3 {
		t.Fatalf("aggregate multi-copy: STOR1=%d > STOR3=%d; expected STOR1 <= STOR3", s1, s3)
	}
}

func TestSTOR3GroupsOption(t *testing.T) {
	p := buildWorkload(7, 16, 40, 3, 2)
	for _, groups := range []int{1, 2, 4, 40, 100} {
		al, err := Assign(p, Options{K: 3, Strategy: STOR3, Groups: groups})
		if err != nil {
			t.Fatalf("groups=%d: %v", groups, err)
		}
		if bad := Verify(p, al); bad != nil {
			t.Fatalf("groups=%d: conflicts %v", groups, bad)
		}
	}
}

func TestSTOR3ForcedRepair(t *testing.T) {
	// Group 1 binds values 1 and 2 with no edge between them (they may land
	// on the same module); group 2 then uses both in one instruction.
	p := Program{Instrs: []conflict.Instruction{
		{1, 3}, {2, 3}, // group 1: 1 and 2 never co-occur
		{1, 2}, // group 2
	}}
	al, err := Assign(p, Options{K: 2, Strategy: STOR3, Groups: 2, Method: Backtrack})
	if err != nil {
		t.Fatal(err)
	}
	if bad := Verify(p, al); bad != nil {
		t.Fatalf("conflicts remain: %v", bad)
	}
}

func TestDisableAtomsStillCorrect(t *testing.T) {
	p := buildWorkload(11, 18, 45, 4, 2)
	al, err := Assign(p, Options{K: 4, DisableAtoms: true})
	if err != nil {
		t.Fatal(err)
	}
	if bad := Verify(p, al); bad != nil {
		t.Fatalf("conflicts: %v", bad)
	}
	if al.Atoms != 0 {
		t.Fatalf("atoms = %d with decomposition disabled", al.Atoms)
	}
	al2, err := Assign(p, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if al2.Atoms == 0 {
		t.Fatal("expected at least one atom with decomposition enabled")
	}
}

func TestAllocationCounts(t *testing.T) {
	p := fig1Program()
	al, err := Assign(p, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if al.SingleCopy+al.MultiCopy != 5 {
		t.Fatalf("value count = %d, want 5", al.SingleCopy+al.MultiCopy)
	}
	if al.TotalCopies < 5 {
		t.Fatalf("total copies = %d < 5", al.TotalCopies)
	}
}

// Property: every strategy/method combination yields a verified allocation
// on random programs, and every operand value has storage.
func TestAssignProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		p := buildWorkload(seed, 6+r.Intn(16), 10+r.Intn(40), k, 1+r.Intn(3))
		for _, s := range []Strategy{STOR1, STOR2, STOR3} {
			al, err := Assign(p, Options{K: k, Strategy: s})
			if err != nil {
				t.Logf("seed %d %v: %v", seed, s, err)
				return false
			}
			if bad := Verify(p, al); bad != nil {
				t.Logf("seed %d %v: conflicts %v", seed, s, bad)
				return false
			}
			for _, in := range p.Instrs {
				for _, v := range in {
					if al.Copies[v].Count() < 1 {
						t.Logf("seed %d %v: value %d without storage", seed, s, v)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPerRegionStrategy(t *testing.T) {
	p := buildWorkload(42, 24, 60, 4, 3)
	al, err := Assign(p, Options{K: 4, Strategy: PerRegion})
	if err != nil {
		t.Fatal(err)
	}
	if bad := Verify(p, al); bad != nil {
		t.Fatalf("conflicts: %v", bad)
	}
	if PerRegion.String() != "PerRegion" {
		t.Fatal("name")
	}
}

func TestPerRegionCrossRegionRepair(t *testing.T) {
	// Values 1 and 2 never co-occur within a region but do across regions:
	// the per-region strategy binds them independently and must repair.
	p := Program{
		Instrs:   []conflict.Instruction{{1, 3}, {2, 3}, {1, 2}},
		RegionOf: []int{0, 0, 1},
	}
	al, err := Assign(p, Options{K: 2, Strategy: PerRegion})
	if err != nil {
		t.Fatal(err)
	}
	if bad := Verify(p, al); bad != nil {
		t.Fatalf("conflicts remain: %v", bad)
	}
}

// TestRestrictedPhaseTelemetry pins what a multi-phase assignment reports:
// each phase's name and method, one duplicate span per duplication attempt
// under its phase span, the repair rounds, and copies placed equal to the
// allocation's extra copies. Every program here needs one repair round: a
// value pinned by an earlier phase clashes in a later one.
func TestRestrictedPhaseTelemetry(t *testing.T) {
	cases := []struct {
		name   string
		p      Program
		opt    Options
		phases []string // "phase method duplicate-spans"
	}{{
		name: "PerRegion",
		p: Program{
			Instrs:   []conflict.Instruction{{1, 3}, {2, 3}, {1, 2}},
			RegionOf: []int{0, 0, 1},
		},
		opt:    Options{K: 2, Strategy: PerRegion},
		phases: []string{"region0 hittingset 1", "region1 hittingset 2"},
	}, {
		// 5 and 6 are region locals used by both regions: region 0 pins
		// them to one module, region 1 fetches them together.
		name: "STOR2",
		p: Program{
			Instrs:   []conflict.Instruction{{1, 7}, {5, 7}, {6, 7}, {5, 6}, {1, 8}},
			RegionOf: []int{0, 0, 0, 1, 1},
			Global:   map[int]bool{1: true},
		},
		opt:    Options{K: 2, Strategy: STOR2, Method: Backtrack},
		phases: []string{"stor2/global coloring 0", "stor2/region0 backtrack 1", "stor2/region1 backtrack 2"},
	}, {
		name:   "STOR3",
		p:      Program{Instrs: []conflict.Instruction{{1, 3}, {2, 3}, {1, 2}}},
		opt:    Options{K: 2, Strategy: STOR3, Groups: 2},
		phases: []string{"stor3/group0 hittingset 1", "stor3/group1 hittingset 2"},
	}}
	for _, c := range cases {
		ring := telemetry.NewRingSink(1 << 12)
		rec := telemetry.New(ring)
		c.opt.Telemetry = rec
		al, err := Assign(c.p, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if bad := Verify(c.p, al); bad != nil {
			t.Fatalf("%s: conflicts %v", c.name, bad)
		}
		phaseOf := map[uint64]string{}
		for _, s := range ring.Spans() {
			if s.Name == "phase" {
				for _, a := range s.Attrs {
					if a.Key == "phase" {
						phaseOf[s.ID] = a.Str
					}
				}
			}
		}
		dups := map[string]int{}
		for _, s := range ring.Spans() {
			if s.Name != "duplicate" {
				continue
			}
			name, ok := phaseOf[s.ParentID]
			if !ok {
				t.Fatalf("%s: duplicate span outside a phase span", c.name)
			}
			dups[name]++
		}
		var got []string
		for _, r := range al.Phases {
			got = append(got, fmt.Sprintf("%s %s %d", r.Phase, r.Method, dups[r.Phase]))
		}
		if !reflect.DeepEqual(got, c.phases) {
			t.Errorf("%s: phases %q, want %q", c.name, got, c.phases)
		}
		if n := rec.Counter(telemetry.MRepairRounds).Value(); n != 1 {
			t.Errorf("%s: %d repair rounds, want 1", c.name, n)
		}
		placed := rec.Counter(telemetry.MCopiesPlaced, "method", c.opt.Method.String()).Value()
		if extra := int64(al.TotalCopies - al.SingleCopy - al.MultiCopy); placed != extra || extra == 0 {
			t.Errorf("%s: counted %d copies placed, allocation holds %d extra", c.name, placed, extra)
		}
	}
}

// TestDeltaResidualResolvesCold: when a delta's solve leaves a residual
// conflict, the cold re-solve starts from an empty allocation state — not
// from the failed attempt's copies — and matches a cold Assign. The first
// coloring call puts every node on module 0, which makes the delta's
// re-solved component conflict.
func TestDeltaResidualResolvesCold(t *testing.T) {
	base := []conflict.Instruction{{1, 2, 3}, {3, 4}, {5, 6}, {6, 7}}
	opt := Options{K: 3, Workers: 1}
	_, state, _, err := AssignIncremental(Program{Instrs: base}, opt)
	if err != nil {
		t.Fatal(err)
	}
	col, first := color, true
	restore := SetBackends(decompose, func(g *graph.Graph, o coloring.Options) coloring.Result {
		if !first {
			return col(g, o)
		}
		first = false
		res := coloring.Result{Assign: map[int]int{}}
		for _, v := range g.Nodes() {
			res.Assign[v] = o.Precolored[v]
		}
		return res
	})
	d := Delta{Changed: []ChangedInstr{{Index: 0, Instr: conflict.Instruction{1, 2, 4}}}}
	al, _, stats, err := AssignDelta(state, d, opt)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full {
		t.Fatal("the delta did not fall back to a cold solve")
	}
	next := []conflict.Instruction{{1, 2, 4}, {3, 4}, {5, 6}, {6, 7}}
	want, err := Assign(Program{Instrs: next}, opt)
	if err != nil {
		t.Fatal(err)
	}
	al.Phases, want.Phases = nil, nil
	if !reflect.DeepEqual(al, want) {
		t.Fatalf("delta after a residual:\n got %+v\nwant %+v", al, want)
	}
}
