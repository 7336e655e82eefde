package parmem

import (
	"context"
	"fmt"
	"strings"

	"parmem/internal/benchprog"
	"parmem/internal/stats"
)

// Benchmarks lists the names of the paper's six test programs in Table 1
// order.
func Benchmarks() []string {
	var out []string
	for _, s := range benchprog.All() {
		out = append(out, s.Name)
	}
	return out
}

// BenchmarkSource returns the MPL source of a named benchmark.
func BenchmarkSource(name string) (string, error) {
	s, err := benchprog.ByName(name)
	if err != nil {
		return "", err
	}
	return s.Source, nil
}

// ExperimentOption adjusts the compile Options an experiment driver uses
// for every compilation it performs. The drivers recompile the benchmark
// suite many times over, so WithWorkers and WithCacheStore are the
// natural knobs: the first sizes the parallel assignment engine, the
// second lets repeated compiles of the same sources skip their coloring
// and duplication searches entirely.
type ExperimentOption func(*Options)

// WithWorkers sets Options.Workers for every compilation of an experiment
// driver run.
func WithWorkers(n int) ExperimentOption {
	return func(o *Options) { o.Workers = n }
}

// WithCacheStore shares one CacheStore (see OpenCacheStore) across every
// compilation of an experiment driver run, including its persistent disk
// tier when the store has one.
func WithCacheStore(s CacheStore) ExperimentOption {
	return func(o *Options) { o.Store = s }
}

// WithTelemetry records every compilation of an experiment driver run into
// one Recorder (see Options.Telemetry), aggregating the whole sweep's
// spans and metrics in one place.
func WithTelemetry(rec *Recorder) ExperimentOption {
	return func(o *Options) { o.Telemetry = rec }
}

// applyExperimentOptions folds driver-level options into compile Options.
func applyExperimentOptions(o Options, opts []ExperimentOption) Options {
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Table1Row reports duplication for one program under one strategy —
// the two columns of the paper's Table 1.
type Table1Row struct {
	Program    string
	Strategy   Strategy
	SingleCopy int // scalars stored once ("=1")
	MultiCopy  int // scalars replicated  (">1")
}

// Table1 reproduces the paper's Table 1: for each benchmark and each
// storage strategy, how many scalar data values needed one copy and how
// many needed several. k is the module count (the paper uses 8). A
// canceled ctx aborts with an error wrapping ErrCanceled; internal panics
// come back as *InternalError.
func Table1(ctx context.Context, k int, opts ...ExperimentOption) (rows []Table1Row, err error) {
	defer recoverPhase("table1", &err)
	for _, spec := range benchprog.All() {
		for _, strat := range []Strategy{STOR1, STOR2, STOR3} {
			p, err := CompileCtx(ctx, spec.Source, applyExperimentOptions(Options{Modules: k, Strategy: strat}, opts))
			if err != nil {
				return nil, fmt.Errorf("table1: %s/%v: %w", spec.Name, strat, err)
			}
			rows = append(rows, Table1Row{
				Program:    spec.Name,
				Strategy:   strat,
				SingleCopy: p.Alloc.SingleCopy,
				MultiCopy:  p.Alloc.MultiCopy,
			})
		}
	}
	return rows, nil
}

// FormatTable1 renders Table 1 rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s", "")
	for _, s := range []string{"STOR1", "STOR2", "STOR3"} {
		fmt.Fprintf(&sb, " | %5s %5s", s+"=1", ">1")
	}
	sb.WriteByte('\n')
	byProg := map[string]map[Strategy]Table1Row{}
	var order []string
	for _, r := range rows {
		if byProg[r.Program] == nil {
			byProg[r.Program] = map[Strategy]Table1Row{}
			order = append(order, r.Program)
		}
		byProg[r.Program][r.Strategy] = r
	}
	for _, prog := range order {
		fmt.Fprintf(&sb, "%-9s", prog)
		for _, s := range []Strategy{STOR1, STOR2, STOR3} {
			r := byProg[prog][s]
			fmt.Fprintf(&sb, " | %5d %5d", r.SingleCopy, r.MultiCopy)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Table2Row reports the array-conflict time ratios for one program and one
// machine size — a cell group of the paper's Table 2.
type Table2Row struct {
	Program  string
	K        int
	Times    Times
	RatioAve float64 // t_ave / t_min
	RatioMax float64 // t_max / t_min
	// MeasuredAve is the simulated transfer time with interleaved arrays
	// divided by t_min — the empirical counterpart of RatioAve.
	MeasuredAve float64
}

// Table2 reproduces the paper's Table 2: the predicted average and worst
// case increase in memory transfer time caused by array accesses, for each
// benchmark, at each machine size in ks (the paper uses 8 and 4).
func Table2(ctx context.Context, ks []int, opts ...ExperimentOption) (rows []Table2Row, err error) {
	defer recoverPhase("table2", &err)
	for _, spec := range benchprog.All() {
		for _, k := range ks {
			p, err := CompileCtx(ctx, spec.Source, applyExperimentOptions(Options{Modules: k}, opts))
			if err != nil {
				return nil, fmt.Errorf("table2: %s/k=%d: %w", spec.Name, k, err)
			}
			res, err := p.Run(RunOptions{})
			if err != nil {
				return nil, fmt.Errorf("table2: %s/k=%d: %w", spec.Name, k, err)
			}
			if err := checkSpec(spec, res); err != nil {
				return nil, fmt.Errorf("table2: %s/k=%d: %w", spec.Name, k, err)
			}
			times := stats.Analyze(res.Profiles, k)
			measured := 1.0
			if res.MemWords > 0 {
				measured = float64(res.TransferTime) / float64(res.MemWords)
			}
			rows = append(rows, Table2Row{
				Program:     spec.Name,
				K:           k,
				Times:       times,
				RatioAve:    times.RatioAve(),
				RatioMax:    times.RatioMax(),
				MeasuredAve: measured,
			})
		}
	}
	return rows, nil
}

// FormatTable2 renders Table 2 rows in the paper's layout.
func FormatTable2(rows []Table2Row, ks []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s", "")
	for _, k := range ks {
		fmt.Fprintf(&sb, " | k=%d: ave/min max/min (meas)", k)
	}
	sb.WriteByte('\n')
	byProg := map[string]map[int]Table2Row{}
	var order []string
	for _, r := range rows {
		if byProg[r.Program] == nil {
			byProg[r.Program] = map[int]Table2Row{}
			order = append(order, r.Program)
		}
		byProg[r.Program][r.K] = r
	}
	for _, prog := range order {
		fmt.Fprintf(&sb, "%-9s", prog)
		for _, k := range ks {
			r := byProg[prog][k]
			fmt.Fprintf(&sb, " |      %4.2f    %4.2f    (%4.2f)", r.RatioAve, r.RatioMax, r.MeasuredAve)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SpeedupRow reports parallel speedup for one benchmark (the paper reports
// 64-300%% overall speedup on the RLIW system).
type SpeedupRow struct {
	Program      string
	DynamicOps   int64
	DynamicWords int64
	Cycles       int64
	Speedup      float64 // sequential time / parallel time
}

// Speedups measures the LIW speedup of every benchmark over sequential
// execution at machine size k, with the optimizing pipeline enabled (4x
// unrolling, scalar optimization and if-conversion — the stand-ins for the
// RLIW compiler's region scheduling, which the paper's 64-300% speedups
// depend on).
func Speedups(ctx context.Context, k int, opts ...ExperimentOption) (rows []SpeedupRow, err error) {
	defer recoverPhase("speedups", &err)
	for _, spec := range benchprog.All() {
		p, err := CompileCtx(ctx, spec.Source, applyExperimentOptions(Options{Modules: k, Unroll: 4, Optimize: true, IfConvert: true}, opts))
		if err != nil {
			return nil, fmt.Errorf("speedups: %s: %w", spec.Name, err)
		}
		res, err := p.Run(RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("speedups: %s: %w", spec.Name, err)
		}
		if err := checkSpec(spec, res); err != nil {
			return nil, fmt.Errorf("speedups: %s: %w", spec.Name, err)
		}
		rows = append(rows, SpeedupRow{
			Program:      spec.Name,
			DynamicOps:   res.DynamicOps,
			DynamicWords: res.DynamicWords,
			Cycles:       res.Cycles,
			Speedup:      res.Speedup(),
		})
	}
	return rows, nil
}

// FormatSpeedups renders the speedup report.
func FormatSpeedups(rows []SpeedupRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s %12s %12s %10s %9s\n", "", "seq ops", "words", "cycles", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9s %12d %12d %10d %8.2fx\n",
			r.Program, r.DynamicOps, r.DynamicWords, r.Cycles, r.Speedup)
	}
	return sb.String()
}

// WidthRow reports one machine configuration of the width sweep.
type WidthRow struct {
	Program string
	K       int // modules = units
	Speedup float64
	Cycles  int64
}

// WidthSweep measures how a benchmark's speed-up scales with machine width
// (modules = units), the knob the *reconfigurable* LIW architecture
// exposes: a program is run at every width in ks with the optimizing
// pipeline. Diminishing returns show where the program's parallelism is
// exhausted.
func WidthSweep(ctx context.Context, name string, ks []int, opts ...ExperimentOption) (rows []WidthRow, err error) {
	defer recoverPhase("widthsweep", &err)
	spec, serr := benchprog.ByName(name)
	if serr != nil {
		return nil, serr
	}
	for _, k := range ks {
		p, err := CompileCtx(ctx, spec.Source, applyExperimentOptions(Options{Modules: k, Unroll: 4, Optimize: true, IfConvert: true}, opts))
		if err != nil {
			return nil, fmt.Errorf("widthsweep: %s/k=%d: %w", name, k, err)
		}
		res, err := p.Run(RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("widthsweep: %s/k=%d: %w", name, k, err)
		}
		if err := checkSpec(spec, res); err != nil {
			return nil, fmt.Errorf("widthsweep: %s/k=%d: %w", name, k, err)
		}
		rows = append(rows, WidthRow{Program: name, K: k, Speedup: res.Speedup(), Cycles: res.Cycles})
	}
	return rows, nil
}

// FormatWidthSweep renders a width sweep.
func FormatWidthSweep(rows []WidthRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s %4s %10s %9s\n", "", "k", "cycles", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9s %4d %10d %8.2fx\n", r.Program, r.K, r.Cycles, r.Speedup)
	}
	return sb.String()
}

// checkSpec validates a benchmark result against its semantic check.
func checkSpec(spec benchprog.Spec, res *Result) error {
	if spec.Check == nil {
		return nil
	}
	return spec.Check(res)
}
