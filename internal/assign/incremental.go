package assign

// The assignment engine. One solve serves every entry point and every
// phase. Every instruction's operands form a clique, so each instruction
// lives in exactly one connected component of the conflict graph, and both
// the coloring pipeline and the duplication cores are component-local. A
// cold Assign(STOR1) is the case where every component is dirty and
// nothing is retained; AssignIncremental additionally keeps the
// per-component records; AssignDelta reuses the records of untouched
// components and re-solves only the dirty ones, on the conflict graph of
// their own instructions. Either way the remaining components are colored
// in one pass, duplicated in one cores call, and one global
// duplication.Finish (per-module load is a whole-program quantity)
// completes an allocation bit-identical to a full recompile. A phase of
// STOR2, STOR3 or PerRegion is the same solve over its own instructions,
// against the copies earlier phases placed.

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"parmem/internal/alloccache"
	"parmem/internal/atoms"
	"parmem/internal/budget"
	"parmem/internal/conflict"
	"parmem/internal/duplication"
	"parmem/internal/graph"
	"parmem/internal/telemetry"
)

// Delta is a program edit against the instruction stream of a prior
// incremental result. Changed and Removed index into the PRIOR stream;
// Added instructions append after it. The edited stream preserves the
// relative order of untouched instructions — the property that keeps
// untouched components' duplication work orders, and therefore their
// results, bit-identical to a cold run of the edited program.
type Delta struct {
	Changed []ChangedInstr
	Removed []int
	Added   []conflict.Instruction
}

// ChangedInstr replaces the instruction at Index with Instr.
type ChangedInstr struct {
	Index int
	Instr conflict.Instruction
}

// IncrStats reports what the incremental engine reused versus recomputed.
type IncrStats struct {
	// Components is the number of conflict components of the (new) program.
	Components int
	// Dirty is how many components were recomputed (touched by the delta,
	// or not matchable against the prior run).
	Dirty int
	// Reused is how many components' records were stitched from the prior
	// result without recomputation.
	Reused int
	// CacheHits is how many dirty components were served from the
	// alloccache's "comp" level (in memory or on disk) instead of
	// re-running color/duplicate.
	CacheHits int
	// Full reports that the engine fell back to a full recompilation (no
	// prior state, incompatible options, degraded prior result, or a
	// residual conflict after stitching).
	Full bool
}

// compRecord is one component's slice of an assignment: the sorted member
// values, the component's instructions in stream order, the values its
// coloring rejected (sorted), its post-cores copy table (pre-Finish; values
// that gained no storage are absent — the global Finish places them), and
// its atom count. Records are immutable once built: reuse shares pointers
// and the stitch clones before mutating.
type compRecord struct {
	values     []int
	instrs     []conflict.Instruction
	unassigned []int
	copies     duplication.Copies
	atoms      int
}

// IncrState is the retained state of an incremental assignment: the exact
// instruction stream and the per-component records. It is immutable —
// AssignDelta returns a fresh state and never mutates its input, so
// concurrent deltas against one base are safe.
type IncrState struct {
	instrs []conflict.Instruction
	comps  []*compRecord
	sig    string // option fingerprint the records are valid under
	// usable is false when the prior result was budget-dependent (degraded
	// or meter-exhausted): its records may not match what an unbudgeted
	// cold run produces, so the next delta recompiles in full.
	usable bool
}

// Instructions returns a copy of the state's instruction stream (the base
// a Delta's indices refer to).
func (s *IncrState) Instructions() []conflict.Instruction {
	out := make([]conflict.Instruction, len(s.instrs))
	for i, in := range s.instrs {
		out[i] = append(conflict.Instruction(nil), in...)
	}
	return out
}

// NumInstructions returns the length of the state's instruction stream.
func (s *IncrState) NumInstructions() int { return len(s.instrs) }

// incrSig fingerprints every option the per-component records depend on.
// Workers and Budget are deliberately absent for the same reason they are
// absent from assignKey: Workers never changes a result and only
// budget-independent results are retained.
func incrSig(opt Options) string {
	k := alloccache.NewKey(nil)
	k.Str("incr")
	k.Int(opt.K)
	k.Int(int(opt.Method))
	k.Int(boolBit(opt.DisableAtoms))
	return k.String()
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// validateIncr rejects option combinations the incremental engine does not
// support: the dirty-region rule relies on STOR1's empty precoloring and
// empty Initial (STOR2/3 thread allocations across phases, so a component
// is no longer a function of its own instructions alone).
func validateIncr(opt Options) error {
	if err := opt.validate(); err != nil {
		return err
	}
	if opt.Strategy != STOR1 {
		return fmt.Errorf("assign: incremental recompilation supports STOR1 only, not %v", opt.Strategy)
	}
	return nil
}

// partitionInstrs splits the stream into its conflict components: one
// record per connected component of the operand-sharing relation, values
// sorted, instructions in stream order, components ordered by smallest
// member value. Instructions with no operands belong to no component (they
// are trivially conflict-free; the global Finish still scans them).
func partitionInstrs(instrs []conflict.Instruction) []*compRecord {
	parent := map[int]int{}
	var find func(v int) int
	find = func(v int) int {
		p, ok := parent[v]
		if !ok {
			parent[v] = v
			return v
		}
		if p != v {
			p = find(p)
			parent[v] = p
		}
		return p
	}
	norm := make([]conflict.Instruction, len(instrs))
	for i, instr := range instrs {
		ops := instr.Normalize()
		norm[i] = ops
		for j := 1; j < len(ops); j++ {
			ra, rb := find(ops[0]), find(ops[j])
			if ra != rb {
				parent[ra] = rb
			}
		}
		if len(ops) > 0 {
			find(ops[0])
		}
	}
	byRoot := map[int]*compRecord{}
	for i, ops := range norm {
		if len(ops) == 0 {
			continue
		}
		r := find(ops[0])
		c, ok := byRoot[r]
		if !ok {
			c = &compRecord{}
			byRoot[r] = c
		}
		c.instrs = append(c.instrs, instrs[i])
	}
	for v := range parent {
		byRoot[find(v)].values = append(byRoot[find(v)].values, v)
	}
	comps := make([]*compRecord, 0, len(byRoot))
	for _, c := range byRoot {
		sort.Ints(c.values)
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].values[0] < comps[j].values[0] })
	return comps
}

// compEntry is a component's solved result in the alloccache (the "comp"
// level): the parts of its compRecord that are not already spelled out by
// the key's instruction sequence.
type compEntry struct {
	unassigned []int
	copies     duplication.Copies // pre-Finish
	atoms      int
}

func (e *compEntry) CloneEntry() alloccache.Entry {
	return &compEntry{
		unassigned: append([]int(nil), e.unassigned...),
		copies:     e.copies.Clone(),
		atoms:      e.atoms,
	}
}

// compKey signs one component subproblem: the options that shape its
// result plus its exact instruction sequence (which determines its values,
// graph, and duplication work order).
func compKey(instrs []conflict.Instruction, opt Options) string {
	k := alloccache.NewKey(make([]byte, 0, 256))
	k.Str("comp")
	k.Int(opt.K)
	k.Int(int(opt.Method))
	k.Int(boolBit(opt.DisableAtoms))
	k.Int(len(instrs))
	for _, instr := range instrs {
		k.Ints(instr)
	}
	return k.String()
}

// valuesKey signs a sorted value set, for matching new components against
// prior records.
func valuesKey(values []int) string {
	k := alloccache.NewKey(make([]byte, 0, 128))
	k.Ints(values)
	return k.String()
}

// solveInput is the input of one solve besides the allocation state
// earlier phases left in st.
type solveInput struct {
	instrs []conflict.Instruction // the whole stream of the call or phase
	// comps holds every component's record when records are needed (the
	// incremental entry points); nil solves the stream as one piece. dirty
	// lists the records still to solve — all of comps on a cold run — and
	// the rest carry their results already.
	comps, dirty []*compRecord
	spans        solveSpans
}

// solveSpans lays out one solve's spans under parent: color wraps the
// coloring (its decompose and atom spans hang under it), dup one
// duplication attempt — the cores and the finish — and finish the finish
// alone, inside dup. An empty name opens no span; the coloring's spans then
// hang under parent itself.
type solveSpans struct {
	parent             *telemetry.Span
	color, dup, finish string
}

// stage opens the span name under parent; an empty name opens none.
func (st *phaseState) stage(name string, parent *telemetry.Span) *telemetry.Span {
	if name == "" {
		return nil
	}
	return st.rec.StartSpan(name, parent)
}

// solve is the one assignment pipeline: every STOR1 entry point, every
// STOR2 and PerRegion region and every STOR3 group runs it. It serves what
// dirty components it can from the "comp" cache level, builds the conflict
// graph of the instructions left to color — the whole stream when every
// component is pending, else the pending components' instructions — colors
// it in one colorPhase, duplicates it in one cores call, splits the result
// into the pending records, and finishes the whole stream once.
//
// Every edge of the conflict graph comes from one instruction and every
// instruction lies inside one component, so the graph of the pending
// components' instructions is the whole graph induced on their values:
// ids still ascend and the bitset form still follows the vertex count, and
// the allocation is the one a whole-stream build gives.
//
// The allocation state in st is the rest of the input: its single-copy
// values precolor the coloring, its copies are the duplication's Initial,
// and only newly colored values are Assigned. A solve that starts with
// copies can meet a residual conflict — values pinned apart earlier meet
// in one instruction here — and repairs it: the residual instructions'
// operands become replicable and the duplication runs again. A solve that
// starts without copies is a STOR1 input, where a residual is an engine bug
// returned as a *residualError. The accepted allocation lands in st; the
// returned fallback is "" when every core completed its primary strategy.
func (st *phaseState) solve(s solveInput, opt Options, stats *IncrStats) (string, error) {
	pending := s.dirty
	if s.comps != nil && opt.Cache != nil {
		pending = nil
		for _, rec := range s.dirty {
			if e, ok := opt.Cache.Get(compKey(rec.instrs, opt)); ok {
				hit := e.(*compEntry) // Get already deep-cloned
				rec.unassigned, rec.copies, rec.atoms = hit.unassigned, hit.copies, hit.atoms
				stats.CacheHits++
				continue
			}
			pending = append(pending, rec)
		}
	}

	instrs := s.instrs
	var g *graph.Dense
	switch {
	case s.comps == nil || len(pending) == len(s.comps):
		g = st.buildConflict(instrs, s.spans.parent)
	case len(pending) > 0:
		instrs = nil
		for _, rec := range pending {
			instrs = append(instrs, rec.instrs...)
		}
		g = st.buildConflict(instrs, s.spans.parent)
	}
	csp := st.stage(s.spans.color, s.spans.parent)
	st.span = s.spans.parent
	if csp != nil {
		st.span = csp
	}
	var assigned map[int]int
	var unassigned []int
	var dec []atoms.Atom
	if g != nil {
		assigned, unassigned, dec = st.colorPhase(g, opt)
		st.rec.Histogram(telemetry.MUnassigned).Observe(int64(len(unassigned)))
	}
	csp.SetAttr("dirty", int64(len(s.dirty)))
	csp.SetAttr("cache_hits", int64(stats.CacheHits))
	csp.End()
	st.span = s.spans.parent

	initial := st.copies
	if len(initial) > 0 {
		// The coloring returns the pinned values too; they enter the
		// duplication through Initial.
		for v := range assigned {
			if initial[v] != 0 {
				delete(assigned, v)
			}
		}
	}
	for _, v := range unassigned {
		st.replicable[v] = true
	}
	if s.comps == nil {
		st.unassigned = append(st.unassigned, unassigned...)
		st.atoms += len(dec)
	}

	method := duplication.MethodHittingSet
	if opt.Method == Backtrack {
		method = duplication.MethodBacktrack
	}
	var fb string
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			st.rec.Counter(telemetry.MRepairRounds).Inc()
		}
		// One duplication-cores pass over everything colored above. Within-
		// component instruction order is preserved, so each core sees the
		// work order a whole-program run gives it; cross-component order is
		// irrelevant (cores are component-local).
		dsp := st.stage(s.spans.dup, s.spans.parent)
		in := duplication.Input{
			Instrs:     instrs,
			Assigned:   assigned,
			Unassigned: sortedKeys(st.replicable),
			Initial:    initial,
			K:          opt.K,
			Meter:      st.meter,
		}
		var copies duplication.Copies
		var afb string
		if g != nil {
			var err error
			if copies, afb, err = duplication.Cores(in, method); err != nil {
				dsp.End()
				return fb, err
			}
		}
		// The copies this attempt's cores placed: beyond Initial's, and not
		// those of served or reused records, which were counted when they
		// were solved. The finish only gives values their first copy.
		placed := extraCopies(copies) - extraCopies(initial)
		if afb != "" {
			fb = afb
			st.degraded = true
			st.rec.Counter(telemetry.MDegradations, "fallback", afb).Inc()
			dsp.SetAttrStr("fallback", afb)
		}
		dsp.SetAttrStr("method", opt.Method.String())
		dsp.SetAttr("components", int64(len(pending)))
		dsp.SetAttr("unassigned", int64(len(in.Unassigned)))
		dsp.SetAttr("new_copies", int64(placed))

		if s.comps != nil {
			st.splitRecords(pending, copies, unassigned, dec, afb, opt)
			// Stitch: merge every record, reused, cached and fresh.
			copies = duplication.Copies{}
			for _, rec := range s.comps {
				st.unassigned = append(st.unassigned, rec.unassigned...)
				st.atoms += rec.atoms
				for v, m := range rec.copies {
					copies[v] = m
				}
			}
			sort.Ints(st.unassigned)
			in.Unassigned = st.unassigned
		}
		fsp := st.stage(s.spans.finish, dsp)
		in.Instrs = s.instrs
		res := duplication.Finish(in, copies)
		fsp.SetAttr("components", int64(len(s.comps)))
		fsp.End()
		dsp.SetAttr("residual", int64(len(res.Residual)))
		dsp.End()
		// Only an accepted table places copies: a repair round discards its
		// attempt's table.
		if len(res.Residual) == 0 {
			st.rec.Counter(telemetry.MCopiesPlaced, "method", opt.Method.String()).Add(int64(placed))
			st.copies = res.Copies
			return fb, nil
		}
		if len(initial) == 0 {
			return fb, &residualError{res.Residual}
		}
		// Each repair round strictly grows the replicable set, and once all
		// operands of an instruction may live in all K modules an SDR
		// exists, so this terminates.
		grew := false
		for _, idx := range res.Residual {
			for _, v := range s.instrs[idx].Normalize() {
				if !st.replicable[v] {
					st.replicable[v] = true
					st.forced = append(st.forced, v)
					grew = true
				}
			}
		}
		if !grew {
			return fb, fmt.Errorf("unresolvable conflicts in instructions %v", res.Residual)
		}
	}
}

// extraCopies counts the copies of c beyond each stored value's first.
func extraCopies(c duplication.Copies) int {
	n := 0
	for _, m := range c {
		if k := m.Count(); k > 1 {
			n += k - 1
		}
	}
	return n
}

// splitRecords hands each freshly solved record its share of one solve:
// its unassigned values, pre-Finish copies and atom count (components hold
// disjoint value sets; every atom lies inside one component). Like every
// other cache level, only budget-independent results are memoized.
func (st *phaseState) splitRecords(pending []*compRecord, copies duplication.Copies, unassigned []int, dec []atoms.Atom, fb string, opt Options) {
	if len(pending) == 0 {
		return
	}
	owner := make(map[int]*compRecord)
	for _, rec := range pending {
		rec.unassigned, rec.atoms = nil, 0
		rec.copies = make(duplication.Copies, len(rec.values))
		for _, v := range rec.values {
			owner[v] = rec
			if s := copies[v]; s != 0 {
				rec.copies[v] = s
			}
		}
	}
	for _, v := range unassigned {
		owner[v].unassigned = append(owner[v].unassigned, v)
	}
	for _, a := range dec {
		owner[a.Nodes[0]].atoms++
	}
	if opt.Cache == nil || fb != "" || st.meter.Exhausted() {
		return
	}
	for _, rec := range pending {
		opt.Cache.Put(compKey(rec.instrs, opt), &compEntry{unassigned: rec.unassigned, copies: rec.copies, atoms: rec.atoms})
	}
}

// residualError reports instructions a solve without earlier copies left
// conflicting. It cannot happen for such STOR1 inputs (coloring gives
// pinned operands pairwise-distinct modules): a delta answers it with a
// cold re-solve, any other caller surfaces it as a *budget.InternalError
// (see solveError).
type residualError struct{ instrs []int }

func (e *residualError) Error() string {
	return fmt.Sprintf("residual conflicts in instructions %v", e.instrs)
}

// solveError prepares a solve's error for the caller: a residual conflict
// is an engine bug, reported as a *budget.InternalError naming the phase;
// anything else (cancellation, a core's error, an unresolvable repair) is
// wrapped with the engine's prefix.
func (st *phaseState) solveError(prefix string, err error) error {
	var re *residualError
	if errors.As(err, &re) {
		return &budget.InternalError{Phase: "assign/" + st.phase, Value: re.Error(), Stack: debug.Stack()}
	}
	return fmt.Errorf("assign: %s: %w", prefix, err)
}

// AssignIncremental is the cold entry of the incremental engine: it solves
// p like Assign(STOR1) — the result is bit-identical — while also
// retaining the per-component records a later AssignDelta stitches
// against.
func AssignIncremental(p Program, opt Options) (al Allocation, state *IncrState, stats IncrStats, err error) {
	st := newPhaseState()
	st.phase = "incremental/validate"
	defer func() {
		if r := recover(); r != nil {
			al, state, stats = Allocation{}, nil, IncrStats{}
			err = &budget.InternalError{Phase: "assign/" + st.phase, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := validateIncr(opt); err != nil {
		return Allocation{}, nil, IncrStats{}, err
	}
	if err := conflict.Validate(p.Instrs, opt.K); err != nil {
		return Allocation{}, nil, IncrStats{}, err
	}
	if err := st.start(opt, "assign_incremental", len(p.Instrs)); err != nil {
		return Allocation{}, nil, IncrStats{}, err
	}
	defer st.end()
	al, state, err = st.solveCold(p.Instrs, opt, &stats)
	return al, state, stats, err
}

// incrSpans is the span layout of the incremental entry points: each
// stage of the solve under its own incr_ span, under the root.
func incrSpans(root *telemetry.Span) solveSpans {
	return solveSpans{parent: root, color: "incr_color", dup: "incr_duplicate", finish: "incr_stitch"}
}

// solveCold solves instrs with every component dirty, retaining the
// records the next delta stitches against.
func (st *phaseState) solveCold(instrs []conflict.Instruction, opt Options, stats *IncrStats) (Allocation, *IncrState, error) {
	start := time.Now()
	nodes0 := st.meter.Spent()
	st.phase = "incremental/cold"
	own := append([]conflict.Instruction(nil), instrs...)
	comps := partitionInstrs(own)
	*stats = IncrStats{Components: len(comps), Dirty: len(comps), Full: true}
	fb, err := st.solve(solveInput{instrs: own, comps: comps, dirty: comps, spans: incrSpans(st.root)}, opt, stats)
	if err != nil {
		return Allocation{}, nil, st.solveError("incremental", err)
	}
	al := st.finish()
	al.Phases = []PhaseReport{{
		Phase:    "incremental/cold",
		Method:   opt.Method.String(),
		Nodes:    st.meter.Spent() - nodes0,
		Elapsed:  time.Since(start),
		Fallback: fb,
		Cached:   stats.CacheHits > 0,
	}}
	state := &IncrState{
		instrs: own,
		comps:  comps,
		sig:    incrSig(opt),
		usable: fb == "" && !st.meter.Exhausted(),
	}
	return al, state, nil
}

// applyDelta edits prev's stream: Changed replaces in place, Removed
// deletes, Added appends — preserving the relative order of untouched
// instructions. It returns the new stream and the set of touched values
// (operands of every edited instruction, old and new versions both).
func applyDelta(prev []conflict.Instruction, d Delta) ([]conflict.Instruction, map[int]bool, error) {
	n := len(prev)
	seen := map[int]bool{}
	for _, c := range d.Changed {
		if c.Index < 0 || c.Index >= n {
			return nil, nil, fmt.Errorf("assign: delta: changed index %d out of range [0,%d)", c.Index, n)
		}
		if seen[c.Index] {
			return nil, nil, fmt.Errorf("assign: delta: index %d edited twice", c.Index)
		}
		seen[c.Index] = true
	}
	for _, i := range d.Removed {
		if i < 0 || i >= n {
			return nil, nil, fmt.Errorf("assign: delta: removed index %d out of range [0,%d)", i, n)
		}
		if seen[i] {
			return nil, nil, fmt.Errorf("assign: delta: index %d edited twice", i)
		}
		seen[i] = true
	}
	touched := map[int]bool{}
	touch := func(instr conflict.Instruction) {
		for _, v := range instr.Normalize() {
			touched[v] = true
		}
	}
	next := make([]conflict.Instruction, 0, n+len(d.Added)-len(d.Removed))
	removed := map[int]bool{}
	for _, i := range d.Removed {
		removed[i] = true
	}
	changed := map[int]conflict.Instruction{}
	for _, c := range d.Changed {
		changed[c.Index] = append(conflict.Instruction(nil), c.Instr...)
	}
	for i, instr := range prev {
		if removed[i] {
			touch(instr)
			continue
		}
		if ni, ok := changed[i]; ok {
			touch(instr)
			touch(ni)
			next = append(next, ni)
			continue
		}
		next = append(next, instr)
	}
	for _, instr := range d.Added {
		ni := append(conflict.Instruction(nil), instr...)
		touch(ni)
		next = append(next, ni)
	}
	return next, touched, nil
}

// instrsEqual reports whether two instruction sequences are identical.
func instrsEqual(a, b []conflict.Instruction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// AssignDelta applies d to the program held by prev and recompiles
// incrementally: components containing no touched value reuse their prior
// records, and only the dirty region — its conflict graph built from its
// own instructions — re-runs the pipeline. The returned Allocation is
// bit-identical to a cold recompile of the edited program (Phases excepted
// — its timings and budget charges honestly reflect the incremental work).
// prev is never mutated; the returned state supersedes it.
func AssignDelta(prev *IncrState, d Delta, opt Options) (al Allocation, state *IncrState, stats IncrStats, err error) {
	st := newPhaseState()
	st.phase = "delta/validate"
	defer func() {
		if r := recover(); r != nil {
			al, state, stats = Allocation{}, nil, IncrStats{}
			err = &budget.InternalError{Phase: "assign/" + st.phase, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := validateIncr(opt); err != nil {
		return Allocation{}, nil, IncrStats{}, err
	}
	if prev == nil {
		return Allocation{}, nil, IncrStats{}, fmt.Errorf("assign: delta: nil prior state")
	}
	next, touched, err := applyDelta(prev.instrs, d)
	if err != nil {
		return Allocation{}, nil, IncrStats{}, err
	}
	if err := conflict.Validate(next, opt.K); err != nil {
		return Allocation{}, nil, IncrStats{}, err
	}
	if err := st.start(opt, "assign_delta", len(next)); err != nil {
		return Allocation{}, nil, IncrStats{}, err
	}
	defer st.end()

	// A prior result produced under different options, or one that was
	// budget-dependent, cannot seed reuse: recompile in full (the fresh
	// state makes the next delta incremental again).
	if !prev.usable || prev.sig != incrSig(opt) {
		st.rec.Counter(telemetry.MIncrFull).Inc()
		al, state, err = st.solveCold(next, opt, &stats)
		return al, state, stats, err
	}

	start := time.Now()
	nodes0 := st.meter.Spent()
	// Dirty-region rule: a component is reusable iff it contains no
	// touched value AND the prior run had a component with the identical
	// value set (any edited instruction inside a component marks all its
	// operands touched, so merges are always dirty; splits either carry a
	// touched value or simply find no prior match). The instruction-list
	// comparison is a structural guard — the value-set match already
	// implies it for untouched components.
	st.phase = "delta/partition"
	// incr_patch times the partition and the match; trace readers key delta
	// runs on its name.
	psp := st.rec.StartSpan("incr_patch", st.root)
	comps := partitionInstrs(next)
	stats.Components = len(comps)
	prevByValues := make(map[string]*compRecord, len(prev.comps))
	for _, rec := range prev.comps {
		prevByValues[valuesKey(rec.values)] = rec
	}
	var dirty []*compRecord
	for i, rec := range comps {
		clean := true
		for _, v := range rec.values {
			if touched[v] {
				clean = false
				break
			}
		}
		if clean {
			if old, ok := prevByValues[valuesKey(rec.values)]; ok && instrsEqual(old.instrs, rec.instrs) {
				comps[i] = old // reuse the immutable prior record
				stats.Reused++
				continue
			}
		}
		dirty = append(dirty, rec)
	}
	stats.Dirty = len(dirty)
	psp.SetAttr("touched", int64(len(touched)))
	psp.End()
	st.rec.Counter(telemetry.MIncrDirty).Add(int64(stats.Dirty))
	st.rec.Counter(telemetry.MIncrReused).Add(int64(stats.Reused))

	st.phase = "delta/solve"
	fb, err := st.solve(solveInput{instrs: next, comps: comps, dirty: dirty, spans: incrSpans(st.root)}, opt, &stats)
	var re *residualError
	if errors.As(err, &re) {
		// A residual after the stitch: do not trust it; re-solve cold from
		// an empty allocation state, on the same meter and root span.
		st.rec.Counter(telemetry.MIncrFull).Inc()
		st.allocState = newAllocState()
		al, state, err = st.solveCold(next, opt, &stats)
		return al, state, stats, err
	}
	if err != nil {
		return Allocation{}, nil, IncrStats{}, fmt.Errorf("assign: delta: %w", err)
	}
	al = st.finish()
	al.Phases = []PhaseReport{{
		Phase:    "incremental/delta",
		Method:   opt.Method.String(),
		Nodes:    st.meter.Spent() - nodes0,
		Elapsed:  time.Since(start),
		Fallback: fb,
		Cached:   stats.CacheHits > 0 || stats.Reused > 0,
	}}
	if st.root != nil {
		st.root.SetAttr("components", int64(stats.Components))
		st.root.SetAttr("dirty", int64(stats.Dirty))
		st.root.SetAttr("reused", int64(stats.Reused))
	}
	state = &IncrState{
		instrs: next,
		comps:  comps,
		sig:    prev.sig,
		usable: fb == "" && !st.meter.Exhausted(),
	}
	return al, state, stats, nil
}
