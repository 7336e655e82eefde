package conflict

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// fig1 is the instruction list of paper Fig. 1: three instructions over
// values V1..V5 (ids 1..5), three memory modules.
func fig1() []Instruction {
	return []Instruction{
		{1, 2, 4},
		{2, 3, 5},
		{2, 3, 4},
	}
}

func TestNormalize(t *testing.T) {
	in := Instruction{5, 2, 2, 9, 5}
	got := in.Normalize()
	want := Instruction{2, 5, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Normalize = %v, want %v", got, want)
	}
	// Receiver untouched.
	if !reflect.DeepEqual(in, Instruction{5, 2, 2, 9, 5}) {
		t.Fatal("Normalize mutated receiver")
	}
}

func TestNormalizeEmpty(t *testing.T) {
	if got := (Instruction{}).Normalize(); got != nil {
		t.Fatalf("empty Normalize = %v, want nil", got)
	}
}

func TestNormalizeAll(t *testing.T) {
	got := Normalize([]Instruction{{3, 1, 3}, {2}})
	want := []Instruction{{1, 3}, {2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Normalize = %v, want %v", got, want)
	}
}

func TestBuildFig1(t *testing.T) {
	g := Build(fig1())
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d, want 5", g.NumNodes())
	}
	// V2 conflicts with everything; V2-V3 appears twice.
	if got := g.Weight(2, 3); got != 2 {
		t.Fatalf("conf(2,3) = %d, want 2", got)
	}
	if got := g.Weight(2, 4); got != 2 {
		t.Fatalf("conf(2,4) = %d, want 2", got)
	}
	if got := g.Weight(1, 2); got != 1 {
		t.Fatalf("conf(1,2) = %d, want 1", got)
	}
	if g.HasEdge(1, 3) {
		t.Fatal("V1 and V3 never co-occur")
	}
	if g.HasEdge(1, 5) {
		t.Fatal("V1 and V5 never co-occur")
	}
}

func TestBuildDuplicateOperandsNoSelfConflict(t *testing.T) {
	g := Build([]Instruction{{1, 1, 2}})
	if g.HasEdge(1, 1) {
		t.Fatal("a value never conflicts with itself")
	}
	if g.Weight(1, 2) != 1 {
		t.Fatalf("conf(1,2) = %d, want 1 (duplicates collapse)", g.Weight(1, 2))
	}
}

func TestBuildIsolatedOperand(t *testing.T) {
	g := Build([]Instruction{{7}})
	if !g.HasNode(7) || g.Degree(7) != 0 {
		t.Fatal("single-operand instruction must still register its value")
	}
}

func TestValidate(t *testing.T) {
	instrs := []Instruction{{1, 2, 3}, {4, 5}}
	if err := Validate(instrs, 3); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := Validate(instrs, 2); err == nil {
		t.Fatal("want error: 3 operands, 2 modules")
	}
	// Duplicate operands collapse before checking.
	if err := Validate([]Instruction{{1, 1, 1, 2}}, 2); err != nil {
		t.Fatalf("duplicates should collapse: %v", err)
	}
}

// combinations runs CombinationsTable over a freshly normalized stream.
func combinations(instrs []Instruction, n int) [][]ValueID {
	return CombinationsTable(NormalizeTable(instrs, nil), n, nil)
}

func TestCombinationsPairs(t *testing.T) {
	got := combinations(fig1(), 2)
	want := [][]int{{1, 2}, {1, 4}, {2, 3}, {2, 4}, {2, 5}, {3, 4}, {3, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
}

func TestCombinationsTriples(t *testing.T) {
	got := combinations(fig1(), 3)
	want := [][]int{{1, 2, 4}, {2, 3, 4}, {2, 3, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("triples = %v, want %v", got, want)
	}
}

func TestCombinationsTooLarge(t *testing.T) {
	if got := combinations(fig1(), 4); len(got) != 0 {
		t.Fatalf("no 4-combinations in 3-operand instructions, got %v", got)
	}
	if got := combinations(fig1(), 0); got != nil {
		t.Fatalf("n=0 must yield nil, got %v", got)
	}
}

func TestCombinationsDedup(t *testing.T) {
	instrs := []Instruction{{1, 2, 3}, {3, 2, 1}, {1, 2, 4}}
	got := combinations(instrs, 3)
	want := [][]int{{1, 2, 3}, {1, 2, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("triples = %v, want %v", got, want)
	}
}

// Property: edge weight conf(u,v) equals a direct recount over instructions.
func TestConfMatchesRecountProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nvals := 3 + r.Intn(10)
		var instrs []Instruction
		for i := 0; i < 3+r.Intn(20); i++ {
			in := Instruction{}
			for j := 0; j < 1+r.Intn(4); j++ {
				in = append(in, r.Intn(nvals))
			}
			instrs = append(instrs, in)
		}
		g := Build(instrs)
		for u := 0; u < nvals; u++ {
			for v := u + 1; v < nvals; v++ {
				count := 0
				for _, in := range instrs {
					ops := in.Normalize()
					hasU, hasV := false, false
					for _, o := range ops {
						hasU = hasU || o == u
						hasV = hasV || o == v
					}
					if hasU && hasV {
						count++
					}
				}
				if g.Weight(u, v) != count {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every n-combination is a subset of some instruction, and every
// instruction of size >= n has all its n-subsets present.
func TestCombinationsCoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var instrs []Instruction
		for i := 0; i < 2+r.Intn(10); i++ {
			in := Instruction{}
			for j := 0; j < 1+r.Intn(5); j++ {
				in = append(in, r.Intn(8))
			}
			instrs = append(instrs, in)
		}
		n := 2 + r.Intn(2)
		combs := combinations(instrs, n)
		inSet := func(comb []int, in Instruction) bool {
			ops := map[int]bool{}
			for _, o := range in.Normalize() {
				ops[o] = true
			}
			for _, c := range comb {
				if !ops[c] {
					return false
				}
			}
			return true
		}
		// Each combination comes from some instruction.
		for _, c := range combs {
			found := false
			for _, in := range instrs {
				if inSet(c, in) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// Count check: the number of combinations from one instruction of m
		// operands is C(m,n); dedup means the set union is covered.
		for _, in := range instrs {
			ops := in.Normalize()
			if len(ops) < n {
				continue
			}
			// Spot-check the first n operands as a combination.
			c := append([]int(nil), ops[:n]...)
			found := false
			for _, got := range combs {
				if reflect.DeepEqual(got, c) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
