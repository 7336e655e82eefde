package parmem

// Differential testing: random MPL programs are compiled under every
// combination of pipeline options (machine widths, strategies, unrolling,
// optimization, if-conversion, renaming and atom decomposition toggles) and
// executed; all configurations must produce identical final memory states.
// This is the strongest whole-pipeline correctness check in the repository:
// any unsound transformation, scheduling bug or allocation error shows up
// as a state divergence.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// progGen emits random valid MPL programs.
type progGen struct {
	r     *rand.Rand
	sb    strings.Builder
	depth int
	loops int // total loop variables created (bounded: w1..w16 are declared)

	activeFor []string // counted-loop variables currently in scope and in range
	allVars   []string // every loop variable created so far (usable in exprs)
}

const genArrayLen = 16

func (g *progGen) gen() string {
	g.sb.Reset()
	g.sb.WriteString("program fuzz;\n")
	g.sb.WriteString("var s0, s1, s2, s3: int;\n")
	g.sb.WriteString("var f0, f1: float;\n")
	g.sb.WriteString(fmt.Sprintf("var arr: array[%d] of int;\n", genArrayLen))
	g.sb.WriteString(fmt.Sprintf("var fa: array[%d] of float;\n", genArrayLen))
	g.sb.WriteString("var w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15, w16: int;\n")
	g.sb.WriteString("begin\n")
	// Seed the state deterministically so every run is nontrivial.
	g.sb.WriteString("s0 := 3; s1 := 5; s2 := 7; s3 := 11;\n")
	g.sb.WriteString("f0 := 1.5; f1 := 2.25;\n")
	g.stmts(3 + g.r.Intn(8))
	g.sb.WriteString("end\n")
	return g.sb.String()
}

func (g *progGen) stmts(n int) {
	for i := 0; i < n; i++ {
		g.stmt()
	}
}

func (g *progGen) stmt() {
	r := g.r.Intn(10)
	switch {
	case r < 4 || g.depth >= 3 || g.loops >= 16: // cap nesting and loop count
		g.assign()
	case r < 6:
		g.ifStmt()
	case r < 8:
		g.forStmt()
	default:
		g.whileStmt()
	}
}

func (g *progGen) assign() {
	switch g.r.Intn(5) {
	case 0:
		g.sb.WriteString(fmt.Sprintf("f%d := %s;\n", g.r.Intn(2), g.floatExpr(2)))
	case 1:
		g.sb.WriteString(fmt.Sprintf("arr[%s] := %s;\n", g.index(), g.intExpr(2)))
	case 2:
		g.sb.WriteString(fmt.Sprintf("fa[%s] := %s;\n", g.index(), g.floatExpr(2)))
	default:
		g.sb.WriteString(fmt.Sprintf("s%d := %s;\n", g.r.Intn(4), g.intExpr(2)))
	}
}

func (g *progGen) ifStmt() {
	g.depth++
	g.sb.WriteString(fmt.Sprintf("if %s then\n", g.cond()))
	g.stmts(1 + g.r.Intn(3))
	if g.r.Intn(2) == 0 {
		g.sb.WriteString("else\n")
		g.stmts(1 + g.r.Intn(3))
	}
	g.sb.WriteString("end\n")
	g.depth--
}

func (g *progGen) forStmt() {
	g.depth++
	g.loops++
	v := fmt.Sprintf("i%d", g.loops)
	g.allVars = append(g.allVars, v)
	g.activeFor = append(g.activeFor, v)
	hi := 1 + g.r.Intn(genArrayLen-1)
	g.sb.WriteString(fmt.Sprintf("for %s := 0 to %d do\n", v, hi))
	g.stmts(1 + g.r.Intn(3))
	g.sb.WriteString("end\n")
	g.activeFor = g.activeFor[:len(g.activeFor)-1]
	g.depth--
}

func (g *progGen) whileStmt() {
	g.depth++
	g.loops++
	v := fmt.Sprintf("w%d", g.loops)
	g.allVars = append(g.allVars, v)
	g.sb.WriteString(fmt.Sprintf("%s := %d;\n", v, 1+g.r.Intn(6)))
	g.sb.WriteString(fmt.Sprintf("while %s > 0 do\n", v))
	g.stmts(1 + g.r.Intn(2))
	g.sb.WriteString(fmt.Sprintf("%s := %s - 1;\nend\n", v, v))
	g.depth--
}

// index yields a provably in-range array index: a literal, an in-scope
// counted-loop variable (its bound stays below the array length while the
// loop runs), or a same-variable square under a constant modulo, which is
// non-negative even for negative or overflowed values.
func (g *progGen) index() string {
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("%d", g.r.Intn(genArrayLen))
	case 1:
		if len(g.activeFor) > 0 {
			return g.activeFor[g.r.Intn(len(g.activeFor))]
		}
		return fmt.Sprintf("%d", g.r.Intn(genArrayLen))
	default:
		// ((x%L)*(x%L)) % L uses the same variable twice: the factors have
		// equal sign, the product is small and non-negative.
		v := fmt.Sprintf("s%d", g.r.Intn(4))
		return fmt.Sprintf("((%s %% %d) * (%s %% %d)) %% %d", v, genArrayLen, v, genArrayLen, genArrayLen)
	}
}

func (g *progGen) intExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(100))
		case 1:
			return fmt.Sprintf("s%d", g.r.Intn(4))
		default:
			if len(g.allVars) > 0 {
				return g.allVars[g.r.Intn(len(g.allVars))]
			}
			return fmt.Sprintf("s%d", g.r.Intn(4))
		}
	}
	ops := []string{"+", "-", "*"}
	op := ops[g.r.Intn(len(ops))]
	if g.r.Intn(6) == 0 {
		// Constant divisors only: division can never fault.
		return fmt.Sprintf("(%s / %d)", g.intExpr(depth-1), 2+g.r.Intn(5))
	}
	if g.r.Intn(6) == 0 {
		return fmt.Sprintf("(%s %% %d)", g.intExpr(depth-1), 3+g.r.Intn(5))
	}
	if g.r.Intn(8) == 0 {
		return fmt.Sprintf("arr[%s]", g.index())
	}
	return fmt.Sprintf("(%s %s %s)", g.intExpr(depth-1), op, g.intExpr(depth-1))
}

func (g *progGen) floatExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d.%d", g.r.Intn(10), g.r.Intn(100))
		case 1:
			return fmt.Sprintf("f%d", g.r.Intn(2))
		default:
			return fmt.Sprintf("s%d", g.r.Intn(4)) // promotes
		}
	}
	ops := []string{"+", "-", "*"}
	if g.r.Intn(6) == 0 {
		return fmt.Sprintf("(%s / %d.0)", g.floatExpr(depth-1), 2+g.r.Intn(4))
	}
	if g.r.Intn(8) == 0 {
		return fmt.Sprintf("fa[%s]", g.index())
	}
	return fmt.Sprintf("(%s %s %s)", g.floatExpr(depth-1), ops[g.r.Intn(3)], g.floatExpr(depth-1))
}

func (g *progGen) cond() string {
	cmps := []string{"<", "<=", ">", ">=", "=", "<>"}
	return fmt.Sprintf("%s %s %s", g.intExpr(1), cmps[g.r.Intn(len(cmps))], g.intExpr(1))
}

// snapshot captures the observable final state of a run.
func snapshot(res *Result) map[string]float64 {
	out := map[string]float64{}
	for _, name := range []string{"s0", "s1", "s2", "s3", "f0", "f1"} {
		if v, ok := res.Scalar(name); ok {
			out[name] = v
		}
	}
	for _, name := range []string{"arr", "fa"} {
		if a, ok := res.Array(name); ok {
			for i, v := range a {
				out[fmt.Sprintf("%s[%d]", name, i)] = v
			}
		}
	}
	return out
}

// fuzzConfigs is the option matrix every random program must agree across.
func fuzzConfigs() []Options {
	return []Options{
		{Modules: 8},
		{Modules: 4},
		{Modules: 8, Units: 1},
		{Modules: 8, Unroll: 4},
		{Modules: 8, Optimize: true},
		{Modules: 8, IfConvert: true},
		{Modules: 8, Unroll: 4, Optimize: true, IfConvert: true},
		{Modules: 8, Strategy: STOR2},
		{Modules: 8, Strategy: STOR3, Groups: 3},
		{Modules: 8, Method: Backtrack},
		{Modules: 8, DisableRenaming: true},
		{Modules: 8, DisableAtoms: true},
		// Budget-starved configs: a one-node (resp. one-nanosecond) search
		// budget forces the hitting-set / full-replication fallbacks on any
		// phase with replication work. Degraded allocations are still
		// conflict-free, so program behavior must not change.
		{Modules: 8, Method: Backtrack, Budget: Budget{MaxBacktrackNodes: 1}},
		{Modules: 4, Method: Backtrack, Strategy: STOR2, Budget: Budget{MaxBacktrackNodes: 1}},
		{Modules: 8, Budget: Budget{MaxDuplicationTime: 1}},
	}
}

func TestDifferentialFuzz(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 10
	}
	configs := fuzzConfigs()
	for seed := int64(0); seed < int64(iters); seed++ {
		g := &progGen{r: rand.New(rand.NewSource(seed))}
		src := g.gen()

		var base map[string]float64
		for ci, opt := range configs {
			p, err := Compile(src, opt)
			if err != nil {
				t.Fatalf("seed %d config %d (%+v): compile: %v\n%s", seed, ci, opt, err, src)
			}
			res, err := p.Run(RunOptions{MaxWords: 5_000_000})
			if err != nil {
				t.Fatalf("seed %d config %d (%+v): run: %v\n%s", seed, ci, opt, err, src)
			}
			snap := snapshot(res)
			if ci == 0 {
				base = snap
				// Programs that overflow floats to Inf/NaN are skipped:
				// if-conversion's 0·x blend term legitimately differs on
				// non-finite values (0·Inf = NaN), which is a documented
				// caveat, not a pipeline bug.
				finite := true
				for _, v := range base {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						finite = false
						break
					}
				}
				if !finite {
					break
				}
				continue
			}
			for k, v := range base {
				got := snap[k]
				if !equalish(v, got) {
					t.Fatalf("seed %d config %d (%+v): %s = %v, want %v\n%s",
						seed, ci, opt, k, got, v, src)
				}
			}
		}
	}
}

// TestCancellationFuzz compiles random programs under contexts that cancel
// after a varying number of polls. Every outcome must be clean: either a
// successful compile (and run) or an error wrapping ErrCanceled — never a
// panic, hang or corrupted result.
func TestCancellationFuzz(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for seed := int64(0); seed < int64(iters); seed++ {
		g := &progGen{r: rand.New(rand.NewSource(1000 + seed))}
		src := g.gen()
		// Sweep the countdown so cancellation lands in different phases.
		for _, polls := range []int64{1, 2, 3, 5, 8} {
			ctx := &countdownCtx{Context: context.Background(), remaining: polls}
			opt := Options{Modules: 4, Method: Backtrack}
			p, err := CompileCtx(ctx, src, opt)
			if err != nil {
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("seed %d polls %d: compile failed with non-cancellation error: %v\n%s",
						seed, polls, err, src)
				}
				continue
			}
			if _, err := p.RunCtx(ctx, RunOptions{MaxWords: 5_000_000}); err != nil && !errors.Is(err, ErrCanceled) {
				t.Fatalf("seed %d polls %d: run failed with non-cancellation error: %v\n%s",
					seed, polls, err, src)
			}
		}
	}
}

// equalish compares exactly for ints and with a tiny relative tolerance for
// floats: if-conversion re-associates float blends (c*e + (1-c)*x), which
// can differ in the last bits.
func equalish(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}
