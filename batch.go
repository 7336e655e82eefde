package parmem

import (
	"context"
	"math"
	"runtime"
	"sync"

	"parmem/internal/budget"
	"parmem/internal/telemetry"
)

// This file is the batch front of the engine: many independent programs
// streamed through one bounded worker pool. Batching exists for throughput
// callers — experiment sweeps, test-corpus replays, build farms — where the
// per-call costs that a single Compile amortizes poorly (worker pool spin-up,
// cold caches, fresh budget meters) dominate. Every item still goes through
// the exact single-call pipeline, so a batch result is the same bytes the
// corresponding sequential call would produce.
//
// Resource model. A batch owns one budget meter sized at the per-item node
// cap times the item count, shared by every item: total search work is capped
// for the whole batch no matter how items distribute it, and a canceled ctx
// stops all in-flight items. Peak memory is bounded by the worker count — at
// most that many items are resident at once; finished Programs are retained
// only in the results slice. Within a multi-item batch each item runs its
// assignment sequentially (inner Workers = 1): item-level parallelism already
// saturates the pool, and nested fan-out would oversubscribe it.

// BatchResult is one CompileBatch outcome. Exactly one of Program and Err is
// non-nil.
type BatchResult struct {
	// Program is the compiled program, nil when compilation failed.
	Program *Program
	// Err is the per-item failure; other items are unaffected.
	Err error
}

// AssignBatchResult is one AssignValuesBatch outcome.
type AssignBatchResult struct {
	// Alloc is the storage allocation; zero when Err is non-nil.
	Alloc Allocation
	// Err is the per-item failure; other items are unaffected.
	Err error
}

// batchWorkers resolves how many batch items run concurrently: the
// requested worker count (0 meaning one per available CPU, minimum 1),
// clamped to the item count.
func batchWorkers(requested, n int) int {
	w := requested
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}

// newBatchMeter builds the node/time meter shared by all items of a batch:
// the per-item node cap times the item count (saturating to unlimited on
// overflow), and the per-item wall-clock cap applied to the batch as a
// whole.
func newBatchMeter(ctx context.Context, b Budget, n int) *budget.Meter {
	per := b.BacktrackNodes()
	total := per
	if per > 0 && n > 1 {
		if per > math.MaxInt64/int64(n) {
			total = -1
		} else {
			total = per * int64(n)
		}
	}
	return budget.NewMeter(ctx, total, b.MaxDuplicationTime)
}

// runBatch is the shared scheduling skeleton: run fn(i) for every index
// across a bounded pool, preserving input order in the caller's results.
// When rec is non-nil each item is counted started and tracked in-flight,
// so a scrape mid-batch sees the pool's instantaneous occupancy.
func runBatch(rec *Recorder, workers, n int, fn func(i int)) {
	if rec != nil {
		items := rec.Counter(telemetry.MBatchItems)
		inflight := rec.Gauge(telemetry.MBatchInFlight)
		inner := fn
		fn = func(i int) {
			items.Inc()
			inflight.Add(1)
			defer inflight.Add(-1)
			inner(i)
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// CompileBatch compiles N independent MPL sources through one bounded
// worker pool and returns one result per source, in input order. Items fail
// independently: a parse error in one source leaves the others untouched.
//
// opt applies to every item. opt.Workers bounds how many items compile
// concurrently (0 means one per available CPU); within a multi-item batch
// each item's assignment runs sequentially, so the pool is the only source
// of parallelism and peak memory stays proportional to the worker count.
// All items share one budget meter holding len(srcs) times the per-item
// node budget — see Allocation.Phases on each result for what its item
// spent — and share opt.Store when one is set, which is where batch
// throughput on similar inputs comes from. A canceled ctx aborts in-flight
// and not-yet-started items with errors wrapping ErrCanceled; finished
// items keep their results.
func CompileBatch(ctx context.Context, srcs []string, opt Options) []BatchResult {
	results := make([]BatchResult, len(srcs))
	if len(srcs) == 0 {
		return results
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		for i := range results {
			results[i].Err = err
		}
		return results
	}
	inner := opt
	inner.meter = newBatchMeter(ctx, opt.Budget, len(srcs))
	if len(srcs) > 1 {
		inner.Workers = 1
	}
	runBatch(opt.Telemetry, batchWorkers(opt.Workers, len(srcs)), len(srcs), func(i int) {
		p, err := compile(ctx, srcs[i], inner)
		results[i] = BatchResult{Program: p, Err: err}
	})
	return results
}

// AssignValuesBatch runs memory-module assignment on N independent
// instruction lists through one bounded worker pool and returns one result
// per list, in input order. It is the batch form of AssignValues; see
// CompileBatch for the scheduling, budget-sharing and cancellation
// semantics (cfg.Workers plays the role of opt.Workers).
func AssignValuesBatch(ctx context.Context, items [][]Instruction, cfg AssignConfig) []AssignBatchResult {
	results := make([]AssignBatchResult, len(items))
	if len(items) == 0 {
		return results
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.validate(); err != nil {
		for i := range results {
			results[i].Err = err
		}
		return results
	}
	inner := cfg
	inner.meter = newBatchMeter(ctx, cfg.Budget, len(items))
	if len(items) > 1 {
		inner.Workers = 1
	}
	runBatch(cfg.Telemetry, batchWorkers(cfg.Workers, len(items)), len(items), func(i int) {
		al, err := AssignValues(ctx, items[i], inner)
		results[i] = AssignBatchResult{Alloc: al, Err: err}
	})
	return results
}
