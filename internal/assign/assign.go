// Package assign drives end-to-end memory-module assignment: it combines
// clique-separator decomposition, the urgency coloring heuristic and a
// duplication strategy into the three whole-program storage strategies the
// paper evaluates (Gupta & Soffa, PPOPP 1988, §3):
//
//   - STOR1 — all data values of the program are considered at once; the
//     conflict graph is unrestricted.
//   - STOR2 — two stages: values live across regions ("globals") are
//     assigned first using conflicts visible among globals only, then each
//     region's local values are assigned with the globals pinned.
//   - STOR3 — the instruction stream is cut into a fixed number of groups;
//     each group's new values are assigned in turn with all earlier
//     bindings pinned.
//
// STOR2/STOR3 can pin two values to the same module before ever seeing an
// instruction that uses both; such instructions cannot be repaired by
// coloring, so the driver force-replicates the clashing values (they count
// toward the multi-copy column of Table 1, which is exactly the degradation
// the paper reports for the restricted strategies).
package assign

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sort"
	"time"

	"parmem/internal/alloccache"
	"parmem/internal/arena"
	"parmem/internal/atoms"
	"parmem/internal/budget"
	"parmem/internal/coloring"
	"parmem/internal/conflict"
	"parmem/internal/duplication"
	"parmem/internal/faultinject"
	"parmem/internal/graph"
	"parmem/internal/telemetry"
)

// Strategy selects how much of the program the conflict graph may span.
type Strategy int

const (
	// STOR1 considers every value and every instruction simultaneously.
	STOR1 Strategy = iota
	// STOR2 assigns region-crossing values first, then region locals.
	STOR2
	// STOR3 splits the instructions into groups assigned in sequence.
	STOR3
	// PerRegion assigns one program region at a time with no global stage
	// — the first alternative §2 mentions for bounding the graph size
	// ("perform the memory module assignment for one program region at a
	// time"). Cross-region values are bound by whichever region touches
	// them first.
	PerRegion
)

func (s Strategy) String() string {
	switch s {
	case STOR1:
		return "STOR1"
	case STOR2:
		return "STOR2"
	case STOR3:
		return "STOR3"
	case PerRegion:
		return "PerRegion"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Method selects the duplication strategy of §2.2.
type Method int

const (
	// HittingSet is the global approach of paper Figs. 7/9/10 (the one the
	// paper reports results for).
	HittingSet Method = iota
	// Backtrack is the per-instruction approach of paper Fig. 6.
	Backtrack
)

func (m Method) String() string {
	if m == Backtrack {
		return "backtrack"
	}
	return "hittingset"
}

// Options configures an assignment run.
type Options struct {
	// K is the number of memory modules; required, >= 1.
	K int
	// Strategy is the conflict-graph scoping strategy; default STOR1.
	Strategy Strategy
	// Method is the duplication strategy; default HittingSet.
	Method Method
	// DisableAtoms turns off clique-separator decomposition before
	// coloring (ablation knob; the paper always decomposes).
	DisableAtoms bool
	// Groups is the number of instruction groups for STOR3; default 2
	// (the paper's experiment splits the instructions into two groups).
	Groups int
	// Ctx cancels assignment between and within phases; nil means
	// context.Background(). A canceled context aborts with an error
	// wrapping budget.ErrCanceled.
	Ctx context.Context
	// Budget caps the duplication searches; the zero value applies
	// budget.DefaultMaxBacktrackNodes. Exhaustion degrades to a cheaper
	// strategy and marks the Allocation Degraded instead of failing.
	Budget budget.Budget
	// Meter, when non-nil, charges this assignment's search work against an
	// externally owned meter instead of building one from Ctx/Budget — the
	// batch API shares one meter across every item of a batch so the whole
	// batch observes one node/time cap. Cancellation and exhaustion behave
	// exactly as with an internally built meter; Ctx and Budget are ignored
	// while a Meter is set.
	Meter *budget.Meter
	// Workers bounds the worker pool of the parallel assignment engine:
	// per-atom coloring and per-component duplication fan out across this
	// many goroutines. 0 (the default) means one worker per available CPU
	// (runtime.GOMAXPROCS); 1 or any negative value forces the sequential
	// paths. The parallel engine is bit-identical to the sequential one
	// whenever the budget is not exhausted mid-run.
	Workers int
	// Cache memoizes whole assignments and STOR1 conflict components
	// across calls. nil disables caching. The cache is a pure memo — hits
	// return exactly what the computation would have produced — and may be
	// shared by concurrent assignments.
	Cache *alloccache.Cache
	// Telemetry records spans and metrics for this assignment. nil (the
	// default) disables all instrumentation at zero cost: every telemetry
	// operation on a nil recorder is a no-op.
	Telemetry *telemetry.Recorder
	// Parent, when Telemetry is set, nests the assignment's root span under
	// an outer pipeline span (the compile driver's).
	Parent *telemetry.Span
}

// decompose and color are the clique-separator decomposition and the
// urgency coloring every phase runs. Only SetBackends changes them.
var (
	decompose = atoms.Decompose
	color     = coloring.GuptaSoffa
)

// SetBackends swaps the decomposition and coloring functions the engine
// runs and returns a func restoring the previous pair. It is the seam the
// differential tests use to run the whole pipeline on the map-graph
// reference implementations in internal/oracle, whose adapters convert
// each snapshot they are handed; it must not be called while an
// assignment runs.
func SetBackends(dec func(d *graph.Dense, workers int) atoms.Decomposition, col func(d *graph.Dense, opt coloring.Options) coloring.Result) (restore func()) {
	pd, pc := decompose, color
	decompose, color = dec, col
	return func() { decompose, color = pd, pc }
}

// validate rejects option values that would otherwise trip internal
// invariant panics (coloring requires K >= 1, ModSet holds at most 64
// modules) deeper in the pipeline.
func (opt Options) validate() error {
	if opt.K < 1 {
		return fmt.Errorf("assign: K = %d, need at least one memory module", opt.K)
	}
	if opt.K > 64 {
		return fmt.Errorf("assign: K = %d, at most 64 memory modules are supported", opt.K)
	}
	if opt.Strategy < STOR1 || opt.Strategy > PerRegion {
		return fmt.Errorf("assign: unknown strategy %d", int(opt.Strategy))
	}
	if opt.Method != HittingSet && opt.Method != Backtrack {
		return fmt.Errorf("assign: unknown duplication method %d", int(opt.Method))
	}
	if opt.Groups < 0 {
		return fmt.Errorf("assign: Groups = %d, must be non-negative", opt.Groups)
	}
	return nil
}

// PhaseReport records what one assignment phase did: how much budget it
// consumed and whether it had to degrade to a cheaper strategy. Callers
// and the CLI use the reports to observe budgeted runs.
type PhaseReport struct {
	// Phase names the pipeline stage, e.g. "stor1", "stor2/global",
	// "stor3/group1", "region2".
	Phase string
	// Method is the duplication method the phase ran ("coloring" for the
	// STOR2 global stage, which only colors).
	Method string
	// Nodes is the number of search-budget nodes the phase charged.
	Nodes int64
	// Elapsed is the wall-clock time of the phase.
	Elapsed time.Duration
	// Fallback names the cheaper strategy taken after budget exhaustion
	// ("" when the primary strategy completed): "hittingset" or
	// "fullreplication".
	Fallback string
	// Cached reports that part of the phase was served from the allocation
	// cache instead of being recomputed: a STOR1 conflict component (or, on
	// a delta, a reused one). The synthetic "cache" phase of a
	// whole-assignment hit sets it too.
	Cached bool
}

// Program is the input to assignment: the instruction stream plus the
// region metadata STOR2 needs.
type Program struct {
	// Instrs is the scheduled long-instruction stream, each entry the set
	// of data values the instruction fetches.
	Instrs []conflict.Instruction
	// RegionOf maps an instruction index to its region id. Only STOR2
	// reads it; nil means one region.
	RegionOf []int
	// Global marks values live across regions. Only STOR2 reads it.
	Global map[int]bool
}

// Allocation is a complete storage assignment.
type Allocation struct {
	// Copies maps every data value to the set of modules storing it.
	Copies duplication.Copies
	// Unassigned lists the values the coloring removed (candidates for
	// replication), over all phases.
	Unassigned []int
	// Forced lists values replicated by conflict repair: values pinned by
	// an earlier phase that later turned out to clash.
	Forced []int
	// SingleCopy and MultiCopy are the Table 1 columns: values stored
	// once vs. replicated.
	SingleCopy, MultiCopy int
	// TotalCopies is the total number of stored copies.
	TotalCopies int
	// Atoms is the number of atoms the conflict graph decomposed into
	// (0 when decomposition is disabled), summed over phases.
	Atoms int
	// Degraded reports that at least one phase exhausted its budget and
	// fell back to a cheaper strategy. The allocation is still correct
	// (Verify-clean) — it just holds more copies than the primary strategy
	// would have produced.
	Degraded bool
	// Phases reports per-phase budget consumption and fallbacks.
	Phases []PhaseReport
}

// Assign computes a conflict-free storage allocation for p.
//
// Assign never panics: internal invariant violations are recovered and
// returned as a *budget.InternalError carrying the failing phase name. A
// canceled Options.Ctx aborts within one phase boundary with an error
// wrapping budget.ErrCanceled; an exhausted Options.Budget degrades the
// affected phases and marks the Allocation (see Allocation.Degraded).
func Assign(p Program, opt Options) (al Allocation, err error) {
	st := newPhaseState()
	st.phase = "validate"
	defer func() {
		if r := recover(); r != nil {
			al = Allocation{}
			err = &budget.InternalError{Phase: "assign/" + st.phase, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := opt.validate(); err != nil {
		return Allocation{}, err
	}
	if err := conflict.Validate(p.Instrs, opt.K); err != nil {
		return Allocation{}, err
	}
	if err := st.start(opt, "assign", len(p.Instrs)); err != nil {
		return Allocation{}, err
	}
	defer st.end()
	var key string
	if opt.Cache != nil {
		key = assignKey(p, opt)
		lookup := time.Now()
		if e, ok := opt.Cache.Get(key); ok {
			al := e.(*allocEntry).al // Get already deep-cloned the entry
			al.Phases = []PhaseReport{{
				Phase: "cache", Method: opt.Method.String(), Cached: true,
				Elapsed: time.Since(lookup),
			}}
			if st.root != nil {
				st.root.SetAttrStr("cache", "hit")
			}
			return al, nil
		}
	}
	switch opt.Strategy {
	case STOR1:
		err = st.solvePhase("stor1", p.Instrs, opt)
	case STOR2:
		err = assignSTOR2(st, p, opt)
	case STOR3:
		err = assignSTOR3(st, p, opt)
	default:
		// No global stage: values spanning regions are pinned by the first
		// region processed; later regions repair clashes by replication.
		err = st.solveRegions(p, "", opt)
	}
	if err != nil {
		return Allocation{}, err
	}
	al = st.finish()
	if opt.Cache != nil && !al.Degraded && !st.meter.Exhausted() {
		opt.Cache.Put(key, &allocEntry{al: al})
	}
	return al, nil
}

// phaseState carries one engine call's allocation state across its phases,
// with the meter and spans they share.
type phaseState struct {
	allocState

	meter   *budget.Meter // shared search budget across all phases
	nodes0  int64         // meter reading when the call started
	phase   string        // current phase name, for reports and errors
	reports []PhaseReport

	rec  *telemetry.Recorder // nil disables all instrumentation
	root *telemetry.Span     // the whole-assignment span
	span *telemetry.Span     // the current phase's span (parent for sub-spans)
}

// allocState is what the phases of one assignment accumulate.
type allocState struct {
	copies     duplication.Copies // accumulated storage
	replicable map[int]bool       // values allowed to gain copies
	unassigned []int
	forced     []int
	atoms      int
	degraded   bool
}

func newAllocState() allocState {
	return allocState{copies: duplication.Copies{}, replicable: map[int]bool{}}
}

func newPhaseState() *phaseState {
	return &phaseState{allocState: newAllocState()}
}

// start opens one engine call after its inputs validated: the search meter
// (opt.Meter, or one built from Ctx and Budget), the cancellation poll, and
// the root span, named for the entry point. end closes what start opened.
func (st *phaseState) start(opt Options, name string, instrs int) error {
	if opt.Meter != nil {
		st.meter = opt.Meter
	} else {
		st.meter = budget.NewMeter(opt.Ctx, opt.Budget.BacktrackNodes(), opt.Budget.MaxDuplicationTime)
	}
	if err := st.meter.Canceled(); err != nil {
		return fmt.Errorf("assign: %w", err)
	}
	st.nodes0 = st.meter.Spent()
	st.rec = opt.Telemetry
	if opt.Parent != nil {
		st.root = st.rec.StartSpan(name, opt.Parent)
	} else {
		// A root with no in-process parent may still continue a distributed
		// trace carried on the request context.
		st.root = st.rec.StartSpanContext(opt.Ctx, name, nil)
	}
	if st.root != nil {
		st.root.SetAttrStr("strategy", opt.Strategy.String())
		st.root.SetAttrStr("method", opt.Method.String())
		st.root.SetAttr("k", int64(opt.K))
		st.root.SetAttr("instructions", int64(instrs))
	}
	return nil
}

// end charges the call's search nodes to the root span and the budget
// counter, and closes the root.
func (st *phaseState) end() {
	st.root.SetAttr("budget_nodes", st.meter.Spent()-st.nodes0)
	st.rec.Counter(telemetry.MBudgetNodes).Add(st.meter.Spent() - st.nodes0)
	st.root.End()
}

// colorPhase colors the snapshot g with opt, seeding from the
// already-allocated values that hold exactly one copy (multi-copy values
// stay flexible and are handled by the SDR checks during duplication). It
// returns the coloring, the values it removed (sorted) and the atoms it
// colored (nil when decomposition is disabled).
func (st *phaseState) colorPhase(g *graph.Dense, opt Options) (map[int]int, []int, []atoms.Atom) {
	// Arena scope for the phase-local views (precoloring, the colorable
	// sub-snapshot); the returned assignment escapes and stays fresh.
	sc := arena.Get()
	defer sc.Release()
	pre := sc.IntMap(g.N())
	keep := sc.Int32s(g.N())[:0]
	for i, v := range g.IDs() {
		s := st.copies[v]
		switch {
		case s.Count() == 1:
			pre[v] = bits.TrailingZeros64(uint64(s))
		case s.Count() > 1:
			continue // replicated already; flexible, not colorable
		}
		keep = append(keep, int32(i))
	}
	work := g.Sub(keep, sc)

	if opt.DisableAtoms {
		csp := st.rec.StartSpan("color", st.span)
		res := color(work, coloring.Options{K: opt.K, Precolored: pre})
		if csp != nil {
			csp.SetAttr("nodes", int64(work.N()))
			csp.SetAttr("unassigned", int64(len(res.Unassigned)))
			csp.End()
		}
		sort.Ints(res.Unassigned)
		return res.Assign, res.Unassigned, nil
	}
	// Atoms are carved off one at a time, each sharing a clique separator
	// with the remaining graph. Color them in REVERSE carve order: then the
	// already-colored part of each atom is exactly its separator — a clique
	// whose vertices necessarily received pairwise-distinct modules — so
	// sequential extension can never start from a clash. (Processing in
	// carve order can color the two endpoints of an edge in two different
	// atoms before the atom containing the edge is reached.) colorAtoms
	// runs that order sequentially or fans independent atoms across the
	// worker pool; both produce identical results.
	// The decomposition itself fans out per connected component (merged in
	// component order, so it too is deterministic).
	dsp := st.rec.StartSpan("decompose", st.span)
	dec := decompose(work, opt.workerCount())
	if dsp != nil {
		dsp.SetAttr("nodes", int64(work.N()))
		dsp.SetAttr("atoms", int64(len(dec.Atoms)))
		dsp.SetAttr("max_atom", int64(dec.MaxAtomSize()))
		dsp.End()
		st.rec.Counter(telemetry.MAtoms).Add(int64(len(dec.Atoms)))
		st.rec.Gauge(telemetry.MAtomSizeMax).Max(int64(dec.MaxAtomSize()))
		sizes := st.rec.Histogram(telemetry.MAtomSize)
		for _, a := range dec.Atoms {
			sizes.Observe(int64(len(a.Nodes)))
		}
	}
	assign, unassigned := colorAtoms(st, work, dec, pre, opt)
	return assign, unassigned, dec.Atoms
}

// inPhase runs body as the named phase of an Assign call: the assign.phase
// fault point, a "phase" span under the root (the parent of the phase's
// sub-spans), the cancellation poll, and the PhaseReport body completes.
// method names what the phase runs: the duplication method, or "coloring".
// The phase's search work is charged against the shared meter.
func (st *phaseState) inPhase(name, method string, body func(rep *PhaseReport) error) error {
	st.phase = name
	faultinject.Check("assign.phase")
	rep := PhaseReport{Phase: name, Method: method}
	phaseStart := time.Now()
	nodes0 := st.meter.Spent()
	st.span = st.rec.StartSpan("phase", st.root)
	if st.span != nil {
		st.span.SetAttrStr("phase", name)
		st.span.SetAttrStr("method", method)
	}
	defer func() {
		rep.Nodes = st.meter.Spent() - nodes0
		rep.Elapsed = time.Since(phaseStart)
		st.reports = append(st.reports, rep)
		if st.span != nil {
			st.span.SetAttr("nodes", rep.Nodes)
			if rep.Fallback != "" {
				st.span.SetAttrStr("fallback", rep.Fallback)
			}
			st.span.End()
			st.rec.Histogram(telemetry.MPhaseMicros, "phase", name).Observe(rep.Elapsed.Microseconds())
		}
		st.span = nil
	}()
	if err := st.meter.Canceled(); err != nil {
		return fmt.Errorf("assign: %s: %w", name, err)
	}
	return body(&rep)
}

func (st *phaseState) finish() Allocation {
	al := Allocation{
		Copies:     st.copies,
		Unassigned: st.unassigned,
		Forced:     st.forced,
		Atoms:      st.atoms,
		Degraded:   st.degraded,
		Phases:     st.reports,
	}
	sort.Ints(al.Unassigned)
	sort.Ints(al.Forced)
	for _, s := range st.copies {
		al.TotalCopies += s.Count()
		if s.Count() > 1 {
			al.MultiCopy++
		} else if s.Count() == 1 {
			al.SingleCopy++
		}
	}
	return al
}

// buildConflict builds the conflict-graph snapshot of instrs, in fresh
// storage (an incremental state keeps it), with a span and the
// conflict-graph volume counters, attributing the build to the named
// phase.
func (st *phaseState) buildConflict(name string, instrs []conflict.Instruction) *graph.Dense {
	sp := st.rec.StartSpan("conflict", st.root)
	g := conflict.Snapshot(instrs, nil)
	if sp != nil {
		sp.SetAttrStr("phase", name)
		sp.SetAttr("nodes", int64(g.N()))
		sp.SetAttr("edges", int64(g.NumEdges()))
		sp.End()
		st.rec.Counter(telemetry.MConflictNodes).Add(int64(g.N()))
		st.rec.Counter(telemetry.MConflictEdges).Add(int64(g.NumEdges()))
	}
	return g
}

// solvePhase builds the conflict graph of instrs and solves it as the
// named phase: the stream as one piece, with no records and so no comp
// lookups (an Assign's whole-assignment key already covers repeats).
func (st *phaseState) solvePhase(name string, instrs []conflict.Instruction, opt Options) error {
	g := st.buildConflict(name, instrs)
	return st.inPhase(name, opt.Method.String(), func(rep *PhaseReport) error {
		fb, err := st.solve(solveInput{instrs: instrs, g: g, spans: solveSpans{parent: st.span, dup: "duplicate"}}, opt, &IncrStats{})
		rep.Fallback = fb
		if err != nil {
			return st.solveError(name, err)
		}
		return nil
	})
}

func assignSTOR2(st *phaseState, p Program, opt Options) error {
	// Stage 1: conflicts among globals only, across the whole program. The
	// stage only *colors*; duplication decisions are taken when the full
	// per-region conflicts are visible. Globals the coloring rejected
	// become replicable for all regions.
	err := st.inPhase("stor2/global", "coloring", func(*PhaseReport) error {
		// The conflict graph of the stream with every non-global operand
		// dropped.
		sc := arena.Get()
		defer sc.Release()
		total := 0
		for _, in := range p.Instrs {
			total += len(in)
		}
		flat := sc.Ints(total)[:0]
		globals := make([]conflict.Instruction, len(p.Instrs))
		for i, in := range p.Instrs {
			start := len(flat)
			for _, v := range in {
				if p.Global[v] {
					flat = append(flat, v)
				}
			}
			globals[i] = flat[start:len(flat):len(flat)]
		}
		globalGraph := conflict.Snapshot(globals, sc)
		assignMap, unassigned, dec := st.colorPhase(globalGraph, opt)
		st.atoms += len(dec)
		for v, m := range assignMap {
			st.copies[v] = duplication.ModSet(0).Add(m)
		}
		for _, v := range unassigned {
			st.replicable[v] = true
			st.unassigned = append(st.unassigned, v)
		}
		if st.span != nil {
			st.span.SetAttr("nodes_colored", int64(len(assignMap)))
			st.span.SetAttr("unassigned", int64(len(unassigned)))
			st.rec.Counter(telemetry.MConflictNodes).Add(int64(globalGraph.N()))
			st.rec.Counter(telemetry.MConflictEdges).Add(int64(globalGraph.NumEdges()))
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Stage 2: one region at a time, the globals pinned.
	return st.solveRegions(p, "stor2/", opt)
}

// solveRegions solves one phase per region, regions in ascending id order,
// each named prefix + "region<i>".
func (st *phaseState) solveRegions(p Program, prefix string, opt Options) error {
	for ri, idxs := range regionOrder(p) {
		instrs := make([]conflict.Instruction, len(idxs))
		for j, i := range idxs {
			instrs[j] = p.Instrs[i]
		}
		if err := st.solvePhase(fmt.Sprintf("%sregion%d", prefix, ri), instrs, opt); err != nil {
			return err
		}
	}
	return nil
}

// regionOrder groups instruction indices by region id, regions in ascending
// id order. A nil RegionOf is a single region 0.
func regionOrder(p Program) [][]int {
	byRegion := map[int][]int{}
	for i := range p.Instrs {
		r := 0
		if p.RegionOf != nil {
			r = p.RegionOf[i]
		}
		byRegion[r] = append(byRegion[r], i)
	}
	var ids []int
	for r := range byRegion {
		ids = append(ids, r)
	}
	sort.Ints(ids)
	out := make([][]int, 0, len(ids))
	for _, r := range ids {
		out = append(out, byRegion[r])
	}
	return out
}

func assignSTOR3(st *phaseState, p Program, opt Options) error {
	groups := opt.Groups
	if groups <= 0 {
		groups = 2
	}
	n := len(p.Instrs)
	for gi := 0; gi < groups; gi++ {
		lo, hi := gi*n/groups, (gi+1)*n/groups
		if lo == hi {
			continue
		}
		if err := st.solvePhase(fmt.Sprintf("stor3/group%d", gi), p.Instrs[lo:hi], opt); err != nil {
			return err
		}
	}
	return nil
}

// Verify checks that every instruction of p is conflict-free under al.
// It returns the indices of conflicting instructions (nil when clean).
func Verify(p Program, al Allocation) []int {
	sc := arena.Get()
	defer sc.Release()
	tbl := conflict.NormalizeTable(p.Instrs, sc)
	var bad []int
	for i := 0; i < tbl.Len(); i++ {
		if !duplication.ConflictFree(tbl.Row(i), al.Copies) {
			bad = append(bad, i)
		}
	}
	return bad
}

// VerifyState is Verify over an incremental state's instruction stream,
// sparing the caller a defensive copy of the instructions.
func VerifyState(s *IncrState, al Allocation) []int {
	return Verify(Program{Instrs: s.instrs}, al)
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func dedupSorted(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	w := 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[i-1] {
			xs[w] = xs[i]
			w++
		}
	}
	return xs[:w]
}
