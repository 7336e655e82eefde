// Package parmem reproduces "Compile-time Techniques for Efficient
// Utilization of Parallel Memories" (Gupta & Soffa, PPOPP 1988): a compiler
// that assigns scalar data values to the parallel memory modules of a
// lock-step LIW machine so that the operands of every long instruction can
// be fetched without memory access conflicts, duplicating values across
// modules only when a conflict-free single-copy assignment does not exist.
//
// The pipeline is:
//
//	MPL source ──lang──▶ three-address IR ──dfa──▶ renamed IR (webs)
//	  ──sched──▶ long instruction words ──assign──▶ storage allocation
//	  ──machine──▶ cycle-accurate execution + conflict statistics
//
// Compile runs the whole front half and returns a Program; Program.Run
// simulates it. The experiment drivers (Table1, Table2, Speedups) regenerate
// the paper's evaluation.
package parmem

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"parmem/internal/alloccache"
	"parmem/internal/assign"
	"parmem/internal/budget"
	"parmem/internal/conflict"
	"parmem/internal/dfa"
	"parmem/internal/duplication"
	"parmem/internal/ir"
	"parmem/internal/lang"
	"parmem/internal/machine"
	"parmem/internal/memory"
	optpass "parmem/internal/opt"
	"parmem/internal/sched"
	"parmem/internal/stats"
	"parmem/internal/telemetry"
)

// Re-exported types: the public API surface of the internal packages.
type (
	// Strategy scopes the conflict graph (STOR1, STOR2, STOR3).
	Strategy = assign.Strategy
	// Method selects the duplication algorithm.
	Method = assign.Method
	// Allocation is a complete storage assignment of values to modules.
	Allocation = assign.Allocation
	// Copies maps value ids to the set of modules storing them.
	Copies = duplication.Copies
	// Layout routes array element accesses to modules.
	Layout = memory.Layout
	// Result is a simulation outcome.
	Result = machine.Result
	// RunOptions configures a simulation.
	RunOptions = machine.Options
	// Times holds the t_min/t_ave/t_max transfer times of Table 2.
	Times = stats.Times
	// Instruction is the operand set of one long instruction word.
	Instruction = conflict.Instruction
	// Budget caps the expensive compilation phases; the zero value picks
	// safe defaults (see the field docs in internal/budget).
	Budget = budget.Budget
	// PhaseReport records one assignment phase's budget consumption and
	// any fallback taken (Allocation.Phases).
	PhaseReport = assign.PhaseReport
	// InternalError is a recovered internal invariant panic; no public
	// API call lets a panic escape.
	InternalError = budget.InternalError
	// AllocCache is the in-memory tier of a CacheStore: it memoizes
	// assignment subproblems (whole assignments and STOR1 conflict
	// components) across compilations. It is a pure memo — hits return
	// exactly what the computation would have produced — and is safe for
	// concurrent use.
	AllocCache = alloccache.Cache
	// CacheStats is a snapshot of an AllocCache's hit/miss counters.
	CacheStats = alloccache.Stats
)

// Typed errors of the robustness taxonomy; test with errors.Is.
var (
	// ErrCanceled is wrapped by every error returned because a
	// context.Context canceled compilation or simulation mid-phase.
	ErrCanceled = budget.ErrCanceled
	// ErrBudget is wrapped by errors returned on budget exhaustion where
	// no cheaper correct answer exists (the simulator's cycle cap);
	// compilation phases degrade instead of returning it.
	ErrBudget = budget.ErrBudget
	// ErrConfig is wrapped by every *ConfigError: errors.Is(err, ErrConfig)
	// identifies "the caller passed a nonsensical configuration" without
	// matching on message text.
	ErrConfig = errors.New("invalid configuration")
)

// ConfigError reports an invalid Options or AssignConfig value rejected at
// the API boundary — before any pipeline phase runs — so nonsensical
// configurations (negative Workers, K outside 1..64, a nil ctx passed to
// CompileCtx or RunCtx) fail fast with a named parameter instead of
// tripping an invariant deep inside a phase. It wraps ErrConfig.
type ConfigError struct {
	// Param names the offending parameter, e.g. "Options.Workers".
	Param string
	// Reason says what is wrong with it.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("parmem: invalid %s: %s", e.Param, e.Reason)
}

// Unwrap makes errors.Is(err, ErrConfig) match every ConfigError.
func (e *ConfigError) Unwrap() error { return ErrConfig }

// configErrf builds a *ConfigError with a formatted reason.
func configErrf(param, format string, args ...any) *ConfigError {
	return &ConfigError{Param: param, Reason: fmt.Sprintf(format, args...)}
}

// DefaultMaxBacktrackNodes is the search-node budget used when
// Budget.MaxBacktrackNodes is zero.
const DefaultMaxBacktrackNodes = budget.DefaultMaxBacktrackNodes

// Strategies and methods of the paper.
const (
	STOR1 = assign.STOR1
	STOR2 = assign.STOR2
	STOR3 = assign.STOR3
	// PerRegion is the per-region alternative §2 mentions (no global stage).
	PerRegion = assign.PerRegion

	HittingSet = assign.HittingSet
	Backtrack  = assign.Backtrack
)

// Layout constructors.
func InterleavedLayout(k int) Layout { return memory.Interleaved{K: k} }
func SingleModuleLayout(m int) Layout {
	return memory.SingleModule{M: m}
}
func SkewedLayout(k int) Layout { return memory.Skewed{K: k} }

// Options configures compilation.
type Options struct {
	// Modules is the number of parallel memory modules (k); default 8.
	Modules int
	// Units is the number of lock-step functional units; default Modules.
	Units int
	// Strategy scopes the conflict graph; default STOR1.
	Strategy Strategy
	// Method picks the duplication algorithm; default HittingSet.
	Method Method
	// Groups is STOR3's instruction-group count; default 2.
	Groups int
	// DisableAtoms skips clique-separator decomposition (ablation).
	DisableAtoms bool
	// DisableRenaming skips web-based renaming (ablation; the paper notes
	// renaming improves results).
	DisableRenaming bool
	// Unroll unrolls counted loops by this factor before lowering (0 or 1
	// disables). Unrolling is MPL's stand-in for the RLIW compiler's
	// region scheduling: it exposes cross-iteration parallelism to the
	// word scheduler. Loops of at most 2*Unroll iterations unroll fully.
	Unroll int
	// Optimize runs constant folding, copy propagation and dead-temporary
	// elimination on the IR before renaming and scheduling. Fewer
	// surviving temporaries mean a smaller conflict graph.
	Optimize bool
	// IfConvert turns short, fault-free conditionals into straight-line
	// blend arithmetic before lowering, removing basic-block boundaries
	// that would otherwise drain the instruction word.
	IfConvert bool
	// Budget caps the expensive phases. The zero value applies
	// DefaultMaxBacktrackNodes to the duplication search; exhausting a
	// compilation budget degrades to a cheaper strategy (see
	// Allocation.Degraded and Allocation.Phases) instead of failing.
	Budget Budget
	// Workers bounds the assignment engine's one fan-out: the connected
	// components of the conflict graph that reach the decomposition's size
	// floor are decomposed across this many goroutines when there are two
	// or more of them. 0 (the default) means one worker per available CPU;
	// 1 keeps the whole engine on the caller's goroutine; negative values
	// are rejected with a *ConfigError. Workers never changes the
	// allocation, not even when the budget runs out.
	Workers int
	// Store is the cache the compilation reads and writes: the in-memory
	// memo table of an OpenCacheStore, optionally backed by a persistent
	// disk tier. Share one CacheStore across repeated compiles (and across
	// processes, via CacheConfig.DiskPath) to skip the coloring and
	// duplication searches. nil disables caching.
	Store CacheStore
	// Telemetry records spans and metrics for this compilation (see
	// NewRecorder and DESIGN §10). nil — the default — disables all
	// telemetry: the instrumented paths reduce to one pointer test and
	// perform no allocations, atomics or clock reads.
	Telemetry *Recorder

	// meter, when set by the batch API, charges assignment search work
	// against a meter shared by the whole batch instead of a fresh per-call
	// one built from the context and Budget.
	meter *budget.Meter
}

func (o Options) withDefaults() Options {
	if o.Modules == 0 {
		o.Modules = 8
	}
	if o.Units == 0 {
		o.Units = o.Modules
	}
	return o
}

// validate rejects option values (after defaulting) that would otherwise
// trip internal invariant panics deeper in the pipeline, making those
// panics unreachable from user input. Every rejection is a *ConfigError
// (errors.Is(err, ErrConfig)) naming the offending field.
func (o Options) validate() error {
	if o.Modules < 1 {
		return configErrf("Options.Modules", "%d: need at least one memory module", o.Modules)
	}
	if o.Modules > 64 {
		return configErrf("Options.Modules", "%d: at most 64 memory modules are supported", o.Modules)
	}
	if o.Units < 1 {
		return configErrf("Options.Units", "%d: need at least one functional unit", o.Units)
	}
	if err := validateEngine("Options", int(o.Strategy), int(o.Method), o.Workers); err != nil {
		return err
	}
	if o.Groups < 0 {
		return configErrf("Options.Groups", "%d: must be non-negative", o.Groups)
	}
	if o.Unroll < 0 {
		return configErrf("Options.Unroll", "%d: must be non-negative", o.Unroll)
	}
	return nil
}

// validateEngine checks the strategy/method/workers triple shared by
// Options and AssignConfig; prefix names the struct in the error.
func validateEngine(prefix string, strategy, method, workers int) error {
	if strategy < int(STOR1) || strategy > int(PerRegion) {
		return configErrf(prefix+".Strategy", "unknown strategy %d", strategy)
	}
	if method != int(HittingSet) && method != int(Backtrack) {
		return configErrf(prefix+".Method", "unknown duplication method %d", method)
	}
	if workers < 0 {
		return configErrf(prefix+".Workers", "%d: must be non-negative (0 = one per CPU, 1 = sequential)", workers)
	}
	return nil
}

// validate rejects AssignConfig values at the API boundary; see
// Options.validate.
func (cfg AssignConfig) validate() error {
	if cfg.K < 1 {
		return configErrf("AssignConfig.K", "%d: need at least one memory module", cfg.K)
	}
	if cfg.K > 64 {
		return configErrf("AssignConfig.K", "%d: at most 64 memory modules are supported", cfg.K)
	}
	return validateEngine("AssignConfig", int(cfg.Strategy), int(cfg.Method), cfg.Workers)
}

// recoverPhase converts a panic escaping a public API call into a typed
// *InternalError naming the phase, so no call can escape a panic.
func recoverPhase(phase string, err *error) {
	if r := recover(); r != nil {
		// An inner boundary (assign, machine) may already have typed the
		// failure and re-panicked it outward; pass such values through
		// unchanged instead of double-wrapping them — the inner Phase and
		// Stack are the ones that name the real failure point.
		if ie, ok := r.(*InternalError); ok {
			*err = ie
			return
		}
		*err = &InternalError{Phase: phase, Value: r, Stack: debug.Stack()}
	}
}

// checkpoint polls ctx between pipeline phases.
func checkpoint(ctx context.Context, phase string) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("parmem: %s: %w: %v", phase, ErrCanceled, cerr)
	}
	return nil
}

// Program is a fully compiled and allocated MPL program, ready to simulate.
type Program struct {
	// Func is the (renamed) IR.
	Func *ir.Func
	// Sched is the long-instruction-word schedule.
	Sched *sched.Program
	// Alloc is the storage allocation.
	Alloc Allocation
	// Opt records the options used.
	Opt Options

	aprog assign.Program
}

// CompileCtx parses, lowers, renames, schedules and allocates MPL source
// under ctx. It is the primary compile entry point; Compile is the
// ctx-less convenience form.
//
// CompileCtx never panics: internal invariant failures come back as a
// typed *InternalError. A canceled ctx aborts between or within phases
// with an error wrapping ErrCanceled; an exhausted opt.Budget degrades
// the affected assignment phases (see Allocation.Degraded) instead of
// failing. A nil ctx is rejected with a *ConfigError — pass
// context.Background() explicitly, or use Compile.
func CompileCtx(ctx context.Context, src string, opt Options) (*Program, error) {
	if ctx == nil {
		return nil, configErrf("ctx", "nil context passed to CompileCtx; pass context.Background() or use Compile")
	}
	return compile(ctx, src, opt)
}

// Compile is CompileCtx under context.Background().
func Compile(src string, opt Options) (*Program, error) {
	return compile(context.Background(), src, opt)
}

func compile(ctx context.Context, src string, opt Options) (p *Program, err error) {
	defer recoverPhase("compile", &err)
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	rec := opt.Telemetry
	wireTelemetry(rec, opt.Store)
	root := rec.StartSpanContext(ctx, "compile", nil)
	defer root.End()
	if err := checkpoint(ctx, "parse"); err != nil {
		return nil, err
	}
	sp0 := rec.StartSpan("parse", root)
	ast, err := lang.Parse(src)
	sp0.End()
	if err != nil {
		return nil, err
	}
	sp0 = rec.StartSpan("lower", root)
	if opt.Unroll >= 2 {
		lang.Unroll(ast, opt.Unroll, 2*opt.Unroll)
	}
	if opt.IfConvert {
		lang.IfConvert(ast, 0)
	}
	f, err := lang.Lower(ast)
	if err == nil && opt.Optimize {
		optpass.Run(f)
	}
	sp0.End()
	if err != nil {
		return nil, err
	}
	if err := checkpoint(ctx, "rename"); err != nil {
		return nil, err
	}
	if !opt.DisableRenaming {
		sp0 = rec.StartSpan("rename", root)
		_, _, rerr := dfa.Rename(f)
		sp0.End()
		if rerr != nil {
			return nil, rerr
		}
	}
	if err := checkpoint(ctx, "schedule"); err != nil {
		return nil, err
	}
	sp0 = rec.StartSpan("schedule", root)
	sp, err := sched.Schedule(f, sched.Config{Modules: opt.Modules, Units: opt.Units})
	sp0.End()
	if err != nil {
		return nil, err
	}
	cfg := dfa.BuildCFG(f)
	regs := cfg.FindRegions()
	aprog := assign.Program{
		Instrs:   sp.Instructions(),
		RegionOf: sp.RegionOf,
		Global:   dfa.GlobalValues(f, regs),
	}
	rec.Counter(telemetry.MInstructions).Add(int64(len(aprog.Instrs)))
	al, err := assign.Assign(aprog, assign.Options{
		K:            opt.Modules,
		Strategy:     opt.Strategy,
		Method:       opt.Method,
		Groups:       opt.Groups,
		DisableAtoms: opt.DisableAtoms,
		Ctx:          ctx,
		Budget:       opt.Budget,
		Workers:      opt.Workers,
		Cache:        storeCache(opt.Store),
		Meter:        opt.meter,
		Telemetry:    rec,
		Parent:       root,
	})
	if err != nil {
		return nil, err
	}
	sp0 = rec.StartSpan("verify", root)
	bad := assign.Verify(aprog, al)
	sp0.End()
	if bad != nil {
		return nil, fmt.Errorf("parmem: allocation left %d conflicting instructions (%v)", len(bad), bad)
	}
	return &Program{Func: f, Sched: sp, Alloc: al, Opt: opt, aprog: aprog}, nil
}

// RunCtx simulates the program on the LIW machine model under ctx. It is
// the primary simulation entry point; Run is the ctx-less convenience
// form. A nil ctx is rejected with a *ConfigError — pass
// context.Background() explicitly, or use Run.
func (p *Program) RunCtx(ctx context.Context, opt RunOptions) (*Result, error) {
	if ctx == nil {
		return nil, configErrf("ctx", "nil context passed to RunCtx; pass context.Background() or use Run")
	}
	opt.Ctx = ctx
	return p.Run(opt)
}

// Run simulates the program on the LIW machine model; a nil opt.Ctx means
// context.Background(). When opt leaves MaxCycles unset it is inherited
// from the compile Options' Budget, so a single Options value budgets the
// whole compile-and-run flow.
func (p *Program) Run(opt RunOptions) (res *Result, err error) {
	defer recoverPhase("run", &err)
	if opt.MaxCycles == 0 {
		opt.MaxCycles = p.Opt.Budget.MaxCycles
	}
	return machine.Run(p.Sched, p.Alloc.Copies, opt)
}

// Instructions returns the operand sets of the scheduled words.
func (p *Program) Instructions() []Instruction { return p.aprog.Instrs }

// AnalyzeTimes computes the paper's t_min/t_ave/t_max model from a run.
func (p *Program) AnalyzeTimes(res *Result) Times {
	return stats.Analyze(res.Profiles, p.Opt.Modules)
}

// PofI returns the aggregate distribution p(i) of an instruction needing i
// operands from one module (the paper's t_ave formula input).
func (p *Program) PofI(res *Result) []float64 {
	return stats.PofI(res.Profiles, p.Opt.Modules)
}

// AssignConfig configures a direct AssignValues call. The zero values of
// Strategy and Method are the paper's defaults (STOR1, HittingSet); K is
// required.
type AssignConfig struct {
	// K is the number of memory modules; required, 1..64.
	K int
	// Strategy scopes the conflict graph; default STOR1.
	Strategy Strategy
	// Method picks the duplication algorithm; default HittingSet.
	Method Method
	// Budget caps the duplication searches; the zero value applies
	// DefaultMaxBacktrackNodes. Exhaustion degrades to a cheaper strategy
	// and marks the Allocation Degraded instead of failing.
	Budget Budget
	// Workers bounds the assignment engine's fan-out; see Options.Workers
	// for the semantics.
	Workers int
	// Store is the cache this call reads and writes; see Options.Store.
	Store CacheStore
	// Telemetry records spans and metrics for this call; see
	// Options.Telemetry.
	Telemetry *Recorder

	// meter, when set by the batch API, charges assignment search work
	// against a meter shared by the whole batch; see Options.meter.
	meter *budget.Meter
}

// AssignValues runs memory-module assignment directly on a list of
// instruction operand sets — the abstract form of the paper's §2, useful
// when the instructions come from somewhere other than the MPL compiler.
// Values are arbitrary small integers.
//
// A canceled ctx aborts with an error wrapping ErrCanceled (nil means
// context.Background()), and an exhausted cfg.Budget degrades to a
// cheaper duplication strategy, marking the returned Allocation Degraded
// (its Phases record what each phase spent and which fallback it took).
// Degraded allocations are still conflict-free.
func AssignValues(ctx context.Context, instrs []Instruction, cfg AssignConfig) (al Allocation, err error) {
	defer recoverPhase("assign", &err)
	if verr := cfg.validate(); verr != nil {
		return Allocation{}, verr
	}
	cfg.Telemetry.Counter(telemetry.MInstructions).Add(int64(len(instrs)))
	p := assign.Program{Instrs: instrs}
	al, err = assign.Assign(p, cfg.engineOptions(ctx))
	if err != nil {
		return Allocation{}, err
	}
	if bad := assign.Verify(p, al); bad != nil {
		return Allocation{}, fmt.Errorf("parmem: allocation left conflicts in instructions %v", bad)
	}
	return al, nil
}

// ConflictFree reports whether the operand set can be fetched in one cycle
// under the given allocation.
func ConflictFree(operands []int, copies Copies) bool {
	return duplication.ConflictFree(operands, copies)
}
