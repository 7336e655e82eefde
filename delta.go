package parmem

import (
	"context"
	"fmt"

	"parmem/internal/assign"
	"parmem/internal/telemetry"
)

// Incremental recompilation: AssignValuesIncremental compiles a program
// once while retaining per-component state, and AssignValuesDelta
// recompiles after an edit touching only the dirty region — the conflict
// components reachable from the edited instructions' values. The dirty
// components' conflict graph is built from their own instructions,
// untouched components reuse their prior colorings and copy tables
// verbatim, and the resulting Allocation is bit-identical to a cold full recompile of the
// edited program (Phases excepted: its timings and budget charges reflect
// the incremental work actually done).

// Delta describes a program edit against a prior incremental result:
// Changed replaces instructions in place, Removed deletes them, Added
// appends new ones. Changed and Removed index the prior result's
// instruction stream (see AssignResult.Instructions).
type Delta = assign.Delta

// ChangedInstruction replaces the instruction at Index with Instr.
type ChangedInstruction = assign.ChangedInstr

// IncrementalStats reports what an incremental run reused versus
// recomputed: component counts, dirty/reused splits, per-component cache
// hits, and whether the engine fell back to a full recompile.
type IncrementalStats = assign.IncrStats

// AssignResult is an allocation plus the retained incremental state a
// later AssignValuesDelta stitches against. Results are immutable: applying
// a delta returns a fresh result and leaves the base valid, so several
// speculative edits can fork from one base concurrently.
type AssignResult struct {
	// Alloc is the storage allocation, bit-identical to what AssignValues
	// would return for the same instruction stream.
	Alloc Allocation
	// Incremental reports the reuse accounting of the run that produced
	// this result.
	Incremental IncrementalStats

	state *assign.IncrState
	// Option fingerprint the state was built under; deltas must match.
	k        int
	strategy Strategy
	method   Method
}

// Instructions returns a copy of the result's instruction stream — the
// base a Delta's Changed/Removed indices refer to.
func (r *AssignResult) Instructions() []Instruction { return r.state.Instructions() }

// NumInstructions returns the length of the result's instruction stream.
func (r *AssignResult) NumInstructions() int { return r.state.NumInstructions() }

// validateIncremental layers the incremental-only constraints over the
// usual AssignConfig checks.
func (cfg AssignConfig) validateIncremental() error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.Strategy != STOR1 {
		return configErrf("AssignConfig.Strategy",
			"%v: incremental recompilation supports STOR1 only", cfg.Strategy)
	}
	return nil
}

// engineOptions translates an AssignConfig into the internal engine
// options, wiring the cache store and telemetry.
func (cfg AssignConfig) engineOptions(ctx context.Context) assign.Options {
	wireTelemetry(cfg.Telemetry, cfg.Store)
	return assign.Options{
		K:         cfg.K,
		Strategy:  cfg.Strategy,
		Method:    cfg.Method,
		Ctx:       ctx,
		Budget:    cfg.Budget,
		Workers:   cfg.Workers,
		Cache:     storeCache(cfg.Store),
		Meter:     cfg.meter,
		Telemetry: cfg.Telemetry,
	}
}

// AssignValuesIncremental is AssignValues plus retained state: the
// returned result holds the instruction stream and per-component records
// that make later AssignValuesDelta calls scale with the edit, not the
// program. The allocation itself is bit-identical to AssignValues' for the
// same inputs.
//
// Only STOR1 (the default strategy) supports incremental recompilation;
// other strategies are rejected with a *ConfigError.
func AssignValuesIncremental(ctx context.Context, instrs []Instruction, cfg AssignConfig) (res *AssignResult, err error) {
	defer recoverPhase("assign", &err)
	if verr := cfg.validateIncremental(); verr != nil {
		return nil, verr
	}
	cfg.Telemetry.Counter(telemetry.MInstructions).Add(int64(len(instrs)))
	al, state, stats, err := assign.AssignIncremental(assign.Program{Instrs: instrs}, cfg.engineOptions(ctx))
	if err != nil {
		return nil, err
	}
	if bad := assign.VerifyState(state, al); bad != nil {
		return nil, fmt.Errorf("parmem: allocation left conflicts in instructions %v", bad)
	}
	return &AssignResult{
		Alloc: al, Incremental: stats, state: state,
		k: cfg.K, strategy: cfg.Strategy, method: cfg.Method,
	}, nil
}

// AssignValuesDelta applies delta to prev's instruction stream and
// recompiles incrementally: only the conflict components containing an
// edited value re-run the conflict-graph build, decomposition, coloring
// and duplication, and untouched components' results are stitched from
// prev. The returned allocation is
// bit-identical to a cold AssignValues of the edited stream whenever the
// budget is not exhausted mid-run; res.Incremental reports what was
// reused.
//
// cfg's K, Strategy and Method must match the configuration
// prev was built under (a *ConfigError reports a mismatch); Workers,
// Budget, Store and Telemetry are free to differ. prev is not mutated —
// it remains a valid base for further deltas.
func AssignValuesDelta(ctx context.Context, prev *AssignResult, delta Delta, cfg AssignConfig) (res *AssignResult, err error) {
	defer recoverPhase("assign", &err)
	if prev == nil || prev.state == nil {
		return nil, configErrf("prev", "nil prior result passed to AssignValuesDelta")
	}
	if verr := cfg.validateIncremental(); verr != nil {
		return nil, verr
	}
	switch {
	case cfg.K != prev.k:
		return nil, configErrf("AssignConfig.K", "%d: prior result was built with K=%d", cfg.K, prev.k)
	case cfg.Method != prev.method:
		return nil, configErrf("AssignConfig.Method", "%v: prior result was built with %v", cfg.Method, prev.method)
	}
	al, state, stats, err := assign.AssignDelta(prev.state, delta, cfg.engineOptions(ctx))
	if err != nil {
		return nil, err
	}
	if bad := assign.VerifyState(state, al); bad != nil {
		return nil, fmt.Errorf("parmem: allocation left conflicts in instructions %v", bad)
	}
	return &AssignResult{
		Alloc: al, Incremental: stats, state: state,
		k: cfg.K, strategy: cfg.Strategy, method: cfg.Method,
	}, nil
}
