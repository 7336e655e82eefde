package parmem

// Robustness tests: budget exhaustion with graceful degradation,
// cancellation at and between phase boundaries, option validation, and the
// fault-injection proof that no public API call can escape a panic.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parmem/internal/faultinject"
)

// cliqueInstrs builds a circulant instruction stream: instruction i uses
// values {i..i+width-1} mod n (1-based). For width <= n/2 every value
// conflicts with 2(width-1) others, so with k < 2(width-1)+1 modules the
// coloring removes many values and the backtracking search has a large
// placement space — a reliable budget-exhaustion stressor.
func cliqueInstrs(n, width int) []Instruction {
	instrs := make([]Instruction, 0, n)
	for i := 0; i < n; i++ {
		var in Instruction
		for j := 0; j < width; j++ {
			in = append(in, 1+(i+j)%n)
		}
		instrs = append(instrs, in)
	}
	return instrs
}

// TestBudgetExhaustionDegradesToHittingSet is the issue's clique stress
// test: a one-node backtracking budget must terminate promptly, fall back
// to the hitting-set approach, mark the allocation degraded, and still be
// conflict-free.
func TestBudgetExhaustionDegradesToHittingSet(t *testing.T) {
	instrs := cliqueInstrs(14, 6)
	b := Budget{MaxBacktrackNodes: 1}
	al, err := AssignValues(context.Background(), instrs, AssignConfig{K: 6, Strategy: STOR1, Method: Backtrack, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if !al.Degraded {
		t.Fatal("Degraded = false, want true (budget of one node cannot finish a backtracking search)")
	}
	if len(al.Phases) == 0 {
		t.Fatal("PhaseReport missing")
	}
	fellBack := false
	for _, ph := range al.Phases {
		if ph.Fallback != "" {
			fellBack = true
			if ph.Fallback != "hittingset" && ph.Fallback != "fullreplication" {
				t.Fatalf("unexpected fallback %q", ph.Fallback)
			}
		}
	}
	if !fellBack {
		t.Fatalf("no phase recorded a fallback: %+v", al.Phases)
	}
	// AssignValues runs assign.Verify internally; double-check here that
	// the degraded allocation really is conflict-free.
	for i, in := range instrs {
		if !ConflictFree(in.Normalize(), al.Copies) {
			t.Fatalf("instruction %d (%v) conflicts after degradation", i, in)
		}
	}
}

// TestBudgetUnlimitedNotDegraded: the same instance with an unlimited
// budget must not report degradation.
func TestBudgetUnlimitedNotDegraded(t *testing.T) {
	instrs := cliqueInstrs(8, 4)
	b := Budget{MaxBacktrackNodes: -1}
	al, err := AssignValues(context.Background(), instrs, AssignConfig{K: 4, Strategy: STOR1, Method: Backtrack, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if al.Degraded {
		t.Fatalf("Degraded = true under unlimited budget; phases: %+v", al.Phases)
	}
	if len(al.Phases) == 0 {
		t.Fatal("PhaseReport missing")
	}
}

// TestDuplicationTimeBudget: an already-expired wall-clock budget degrades
// exactly like an exhausted node budget.
func TestDuplicationTimeBudget(t *testing.T) {
	instrs := cliqueInstrs(14, 6)
	b := Budget{MaxDuplicationTime: time.Nanosecond}
	al, err := AssignValues(context.Background(), instrs, AssignConfig{K: 6, Strategy: STOR1, Method: Backtrack, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if !al.Degraded {
		t.Fatal("Degraded = false, want true under a one-nanosecond time budget")
	}
}

// countdownCtx cancels itself after its Err method has been polled a fixed
// number of times — a deterministic stand-in for a deadline firing in the
// middle of a phase.
type countdownCtx struct {
	context.Context
	remaining int64
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt64(&c.remaining, -1) <= 0 {
		return context.Canceled
	}
	return nil
}

func TestAssignCanceledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AssignValues(ctx, cliqueInstrs(8, 4), AssignConfig{K: 4, Strategy: STOR1, Method: HittingSet})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestAssignCanceledMidPhase(t *testing.T) {
	// The first few polls succeed (the up-front check and the first phase
	// boundary), then the context reports cancellation while the
	// backtracking search is spending nodes.
	ctx := &countdownCtx{Context: context.Background(), remaining: 3}
	_, err := AssignValues(ctx, cliqueInstrs(14, 6), AssignConfig{K: 6, Strategy: STOR1, Method: Backtrack})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestCompileCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileCtx(ctx, quick, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestRunCanceled(t *testing.T) {
	p, err := Compile(quick, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(RunOptions{Ctx: ctx}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestRunCycleBudget(t *testing.T) {
	src := `
program spin;
var s, w: int;
begin
  w := 200;
  while w > 0 do
    s := s + w;
    w := w - 1;
  end
end`
	p, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunOptions{MaxCycles: 10}); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// The same cap riding in through the compile Options must bound Run too.
	p2, err := Compile(src, Options{Budget: Budget{MaxCycles: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Run(RunOptions{}); !errors.Is(err, ErrBudget) {
		t.Fatalf("inherited cap: err = %v, want ErrBudget", err)
	}
	// And a generous cap must not fire.
	if _, err := p.Run(RunOptions{MaxCycles: 1 << 40}); err != nil {
		t.Fatalf("generous cap: %v", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"zero modules via explicit negative", Options{Modules: -1}},
		{"too many modules", Options{Modules: 65}},
		{"negative units", Options{Modules: 8, Units: -2}},
		{"bad strategy", Options{Modules: 8, Strategy: Strategy(99)}},
		{"bad method", Options{Modules: 8, Method: Method(99)}},
		{"negative groups", Options{Modules: 8, Groups: -1}},
		{"negative unroll", Options{Modules: 8, Unroll: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Compile(quick, tc.opt); err == nil {
				t.Fatalf("Compile accepted %+v", tc.opt)
			}
		})
	}
	// Bad module counts through the direct assignment API must error, not
	// panic (coloring panics on K < 1 when reached directly).
	if _, err := AssignValues(context.Background(), cliqueInstrs(4, 2), AssignConfig{K: 0, Strategy: STOR1, Method: HittingSet}); err == nil {
		t.Fatal("AssignValues accepted k=0")
	}
	if _, err := AssignValues(context.Background(), cliqueInstrs(4, 2), AssignConfig{K: 65, Strategy: STOR1, Method: HittingSet}); err == nil {
		t.Fatal("AssignValues accepted k=65 (ModSet holds 64 modules)")
	}
}

// TestFaultInjection arms every injection point reachable from the public
// API and proves the panic comes back as a typed *InternalError naming the
// phase — never as an escaped panic.
func TestFaultInjection(t *testing.T) {
	defer faultinject.Reset()

	instrs := cliqueInstrs(10, 4)
	viaAssign := func(method Method) func() error {
		return func() error {
			_, err := AssignValues(context.Background(), instrs, AssignConfig{K: 4, Strategy: STOR1, Method: method})
			return err
		}
	}
	cases := []struct {
		point     string
		call      func() error
		wantPhase string // exact match, or prefix when ending in "/"
	}{
		{"dfa.rename", func() error { _, err := Compile(quick, Options{}); return err }, "compile"},
		{"coloring.guptasoffa", viaAssign(HittingSet), "assign/"},
		{"assign.phase", viaAssign(HittingSet), "assign/"},
		{"duplication.hittingset", viaAssign(HittingSet), "assign/"},
		{"duplication.backtrack", viaAssign(Backtrack), "assign/"},
		{"machine.run", func() error {
			p, err := Compile(quick, Options{})
			if err != nil {
				return err
			}
			_, err = p.Run(RunOptions{})
			return err
		}, "machine"},
		{"stats.analyze", func() error {
			_, err := Table2(context.Background(), []int{4})
			return err
		}, "table2"},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			faultinject.Arm(tc.point)
			defer faultinject.Disarm(tc.point)
			err := tc.call()
			if err == nil {
				t.Fatalf("point %s: call succeeded, want *InternalError", tc.point)
			}
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("point %s: err = %v (%T), want *InternalError", tc.point, err, err)
			}
			if strings.HasSuffix(tc.wantPhase, "/") {
				if !strings.HasPrefix(ie.Phase, tc.wantPhase) {
					t.Fatalf("point %s: phase = %q, want prefix %q", tc.point, ie.Phase, tc.wantPhase)
				}
			} else if ie.Phase != tc.wantPhase {
				t.Fatalf("point %s: phase = %q, want %q", tc.point, ie.Phase, tc.wantPhase)
			}
			if !strings.Contains(ie.Error(), tc.point) {
				t.Fatalf("point %s: error %q does not name the injected point", tc.point, ie.Error())
			}
			if len(ie.Stack) == 0 {
				t.Fatalf("point %s: no stack captured", tc.point)
			}
		})
	}
}

// TestFaultInjectionTables: the table drivers are API boundaries too.
func TestFaultInjectionTables(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm("assign.phase")
	defer faultinject.Disarm("assign.phase")

	var ie *InternalError
	if _, err := Table1(context.Background(), 4); !errors.As(err, &ie) {
		t.Fatalf("Table1: err = %v, want *InternalError", err)
	}
	ie = nil
	if _, err := Table2(context.Background(), []int{4}); !errors.As(err, &ie) {
		t.Fatalf("Table2: err = %v, want *InternalError", err)
	}
}

// TestDegradedAllocationRuns proves the end-to-end claim: a program whose
// allocation degraded under a tiny budget still compiles, verifies and
// executes to the same result as an unbudgeted compile.
func TestDegradedAllocationRuns(t *testing.T) {
	src := `
program deg;
var s0, s1, s2, s3: int;
var arr: array[8] of int;
begin
  s0 := 3; s1 := 5; s2 := 7; s3 := 11;
  for i := 0 to 7 do
    arr[i] := (s0 * i + s1) - (s2 * s3);
    s0 := s0 + arr[i];
    s1 := s1 * 2 - s0;
    s2 := s2 + s1 - i;
  end
end`
	base, err := Compile(src, Options{Modules: 4, Method: Backtrack})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := base.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := Compile(src, Options{Modules: 4, Method: Backtrack,
		Budget: Budget{MaxBacktrackNodes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tres, err := tiny.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, got := snapshot(bres), snapshot(tres)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s = %v under tiny budget, want %v", k, got[k], v)
		}
	}
}
