package assign

// Incremental recompilation (STOR1). A program edit perturbs only the
// conflict components reachable from the touched values — every
// instruction's operands form a clique, so each instruction lives in
// exactly one connected component, and both the coloring pipeline and the
// duplication cores are component-local (the invariant the parallel engine
// of duplication's partition.go is built on). The incremental engine
// exploits it end to end: the frozen Dense snapshot is patched per edited
// edge, only the dirty components re-enter decompose/color/duplicate,
// untouched components' results are stitched straight out of the prior
// run's per-component records, and one global duplication.Finish
// (per-module load is a whole-program quantity) completes an allocation
// bit-identical to a full recompile.

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"parmem/internal/alloccache"
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
	// alloccache's "comp" level instead of re-running color/duplicate.
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
// instruction stream, the frozen (patched) Dense snapshot of its conflict
// graph, per-value instruction refcounts, and the per-component records.
// It is immutable — AssignDelta returns a fresh state and never mutates
// its input, so concurrent deltas against one base are safe.
type IncrState struct {
	instrs []conflict.Instruction
	dense  *graph.Dense
	valRef map[int]int // value -> number of instructions using it
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
// absent from assignKey: the parallel engine is bit-identical and only
// budget-independent results are retained.
func incrSig(opt Options) string {
	k := alloccache.NewKey(nil)
	k.Str("incr")
	k.Int(opt.K)
	k.Int(int(opt.Method))
	k.Int(int(opt.Pick))
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

// compEntry adapts a compRecord to the alloccache (the "comp" level).
type compEntry struct{ rec compRecord }

func (e *compEntry) CloneEntry() alloccache.Entry {
	return &compEntry{rec: compRecord{
		values:     append([]int(nil), e.rec.values...),
		instrs:     e.rec.instrs, // instruction slices are never mutated
		unassigned: append([]int(nil), e.rec.unassigned...),
		copies:     e.rec.copies.Clone(),
		atoms:      e.rec.atoms,
	}}
}

// compKey signs one component subproblem: the options that shape its
// result plus its exact instruction sequence (which determines its values,
// graph, and duplication work order).
func compKey(instrs []conflict.Instruction, opt Options) string {
	k := alloccache.NewKey(make([]byte, 0, 256))
	k.Str("comp")
	k.Int(opt.K)
	k.Int(int(opt.Method))
	k.Int(int(opt.Pick))
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

// solveDirty recomputes the dirty components in place: each is served from
// the "comp" cache level when possible, otherwise colored against the
// patched snapshot (decompose → atoms → urgency coloring, the normal
// pipeline) and then duplicated — all misses in ONE cores call, whose
// internal partition fans them across the worker pool. It returns the
// merged fallback label ("" when every core completed its primary
// strategy).
func (st *phaseState) solveDirty(dirty []*compRecord, snap *graph.Dense, opt Options, stats *IncrStats) (string, error) {
	var pending []*compRecord
	assigned := map[int]int{}
	csp := st.rec.StartSpan("incr_color", st.root)
	for _, rec := range dirty {
		if opt.Cache != nil {
			if e, ok := opt.Cache.Get(compKey(rec.instrs, opt)); ok {
				hit := e.(*compEntry).rec // Get already deep-cloned
				rec.unassigned = hit.unassigned
				rec.copies = hit.copies
				rec.atoms = hit.atoms
				stats.CacheHits++
				continue
			}
		}
		g := snap.InducedGraph(rec.values)
		atoms0 := st.atoms
		assignMap, unassigned := st.colorPhase(g, opt)
		rec.atoms = st.atoms - atoms0
		rec.unassigned = append([]int(nil), unassigned...)
		sort.Ints(rec.unassigned)
		for v, m := range assignMap {
			assigned[v] = m
		}
		pending = append(pending, rec)
	}
	if csp != nil {
		csp.SetAttr("dirty", int64(len(dirty)))
		csp.SetAttr("cache_hits", int64(stats.CacheHits))
		csp.End()
	}
	if len(pending) == 0 {
		return "", nil
	}

	// One duplication-cores pass over every pending component. Within-
	// component instruction order is preserved, so each core sees the same
	// work order a whole-program run would give it; cross-component order
	// is irrelevant (cores are component-local).
	var instrs []conflict.Instruction
	var unassigned []int
	for _, rec := range pending {
		instrs = append(instrs, rec.instrs...)
		unassigned = append(unassigned, rec.unassigned...)
	}
	sort.Ints(unassigned)
	in := duplication.Input{
		Instrs:     instrs,
		Assigned:   assigned,
		Unassigned: unassigned,
		K:          opt.K,
		Meter:      st.meter,
	}
	dsp := st.rec.StartSpan("incr_duplicate", st.root)
	var copies duplication.Copies
	var fb string
	var err error
	if opt.Method == Backtrack {
		copies, fb, err = duplication.BacktrackCores(in, opt.workerCount())
	} else {
		copies, fb, err = duplication.HittingSetCores(in, opt.workerCount())
	}
	if dsp != nil {
		dsp.SetAttr("components", int64(len(pending)))
		if fb != "" {
			dsp.SetAttrStr("fallback", fb)
		}
		dsp.End()
	}
	if err != nil {
		return "", err
	}

	// Split the merged copy table back into per-component records
	// (components hold disjoint value sets).
	for _, rec := range pending {
		rec.copies = make(duplication.Copies, len(rec.values))
		for _, v := range rec.values {
			if s, ok := copies[v]; ok && s != 0 {
				rec.copies[v] = s
			}
		}
		// Like every other cache level: only budget-independent results
		// are memoized.
		if opt.Cache != nil && fb == "" && !st.meter.Exhausted() {
			opt.Cache.Put(compKey(rec.instrs, opt), &compEntry{rec: *rec})
		}
	}
	return fb, nil
}

// stitch merges every component record (reused and fresh) and runs the
// single global Finish: load-balanced placement of copyless values, the
// residual conflict scan, and the copy accounting. ok is false when a
// residual conflict survives — never the case for STOR1 inputs, but the
// caller falls back to a full recompile rather than trust the stitch.
func (st *phaseState) stitch(instrs []conflict.Instruction, comps []*compRecord, opt Options) (Allocation, bool) {
	var unassigned []int
	atoms := 0
	merged := duplication.Copies{}
	for _, rec := range comps {
		unassigned = append(unassigned, rec.unassigned...)
		atoms += rec.atoms
		for v, s := range rec.copies {
			merged[v] = s
		}
	}
	sort.Ints(unassigned)
	in := duplication.Input{
		Instrs:     instrs,
		Unassigned: unassigned,
		K:          opt.K,
		Meter:      st.meter,
	}
	ssp := st.rec.StartSpan("incr_stitch", st.root)
	res := duplication.Finish(in, merged)
	if ssp != nil {
		ssp.SetAttr("components", int64(len(comps)))
		ssp.SetAttr("residual", int64(len(res.Residual)))
		ssp.End()
	}
	if len(res.Residual) > 0 {
		return Allocation{}, false
	}
	al := Allocation{
		Copies:     res.Copies,
		Unassigned: unassigned,
		Atoms:      atoms,
	}
	for _, s := range al.Copies {
		al.TotalCopies += s.Count()
		if s.Count() > 1 {
			al.MultiCopy++
		} else if s.Count() == 1 {
			al.SingleCopy++
		}
	}
	return al, true
}

// incrPhaseState builds the shared phase bookkeeping of an incremental
// run, mirroring Assign's meter and span setup.
func incrPhaseState(opt Options, spanName string) *phaseState {
	st := newPhaseState()
	st.phase = spanName
	if opt.Meter != nil {
		st.meter = opt.Meter
	} else {
		st.meter = budget.NewMeter(opt.Ctx, opt.Budget.BacktrackNodes(), opt.Budget.MaxDuplicationTime)
	}
	st.rec = opt.Telemetry
	if opt.Parent != nil {
		st.root = st.rec.StartSpan(spanName, opt.Parent)
	} else {
		st.root = st.rec.StartSpanContext(opt.Ctx, spanName, nil)
	}
	if st.root != nil {
		st.root.SetAttrStr("method", opt.Method.String())
		st.root.SetAttr("k", int64(opt.K))
	}
	return st
}

// AssignIncremental is the cold entry of the incremental engine: it solves
// p like Assign(STOR1) — the result is bit-identical — while also
// retaining the per-component records, refcounts, and frozen snapshot a
// later AssignDelta stitches against.
func AssignIncremental(p Program, opt Options) (al Allocation, state *IncrState, stats IncrStats, err error) {
	st := incrPhaseState(opt, "assign_incremental")
	defer func() {
		if r := recover(); r != nil {
			al, state, stats = Allocation{}, nil, IncrStats{}
			err = &budget.InternalError{Phase: "assign/" + st.phase, Value: r, Stack: debug.Stack()}
		}
	}()
	defer st.root.End()
	if err := validateIncr(opt); err != nil {
		return Allocation{}, nil, IncrStats{}, err
	}
	if err := conflict.Validate(p.Instrs, opt.K); err != nil {
		return Allocation{}, nil, IncrStats{}, err
	}
	if err := st.meter.Canceled(); err != nil {
		return Allocation{}, nil, IncrStats{}, fmt.Errorf("assign: %w", err)
	}
	stats.Full = true
	al, state, err = st.solveCold(p.Instrs, opt, &stats)
	return al, state, stats, err
}

// solveCold recomputes everything from scratch: full conflict build, every
// component dirty. It still goes through the component machinery so the
// resulting state carries records for the next delta.
func (st *phaseState) solveCold(instrs []conflict.Instruction, opt Options, stats *IncrStats) (Allocation, *IncrState, error) {
	start := time.Now()
	nodes0 := st.meter.Spent()
	st.phase = "incremental/cold"
	own := append([]conflict.Instruction(nil), instrs...)
	g := st.buildConflict("incremental", own)
	snap := graph.FromGraph(g) // fresh storage: the snapshot outlives this call
	valRef := map[int]int{}
	for _, instr := range own {
		for _, v := range instr.Normalize() {
			valRef[v]++
		}
	}
	comps := partitionInstrs(own)
	stats.Components = len(comps)
	stats.Dirty = len(comps)
	fb, err := st.solveDirty(comps, snap, opt, stats)
	if err != nil {
		return Allocation{}, nil, fmt.Errorf("assign: incremental: %w", err)
	}
	al, ok := st.stitch(own, comps, opt)
	if !ok {
		// Residual after stitch: cannot happen for STOR1 (coloring gives
		// pinned operands pairwise-distinct modules), but if it ever does,
		// hand the program to the battle-tested full path and mark the
		// state unusable for deltas.
		p := Program{Instrs: own}
		fopt := opt
		fopt.Meter = st.meter
		al, err := Assign(p, fopt)
		if err != nil {
			return Allocation{}, nil, err
		}
		return al, &IncrState{instrs: own, sig: incrSig(opt)}, nil
	}
	al.Degraded = fb != ""
	if al.Degraded {
		st.degraded = true
	}
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
		dense:  snap,
		valRef: valRef,
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

// deltaGraphEdits derives the conflict-graph edit from the instruction
// delta: per-pair weight adjustments (co-occurrence counts) plus the value
// refcount updates that decide node insertion and removal. newRef is the
// updated refcount map (fresh — prev's map is not mutated).
func deltaGraphEdits(prevRef map[int]int, d Delta, prev []conflict.Instruction) (wds []graph.WeightDelta, addNodes, dropNodes []int, newRef map[int]int) {
	newRef = make(map[int]int, len(prevRef))
	for v, c := range prevRef {
		newRef[v] = c
	}
	apply := func(instr conflict.Instruction, sign int) {
		ops := instr.Normalize()
		for _, v := range ops {
			newRef[v] += sign
		}
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				wds = append(wds, graph.WeightDelta{U: ops[i], V: ops[j], DW: int32(sign)})
			}
		}
	}
	for _, i := range d.Removed {
		apply(prev[i], -1)
	}
	for _, c := range d.Changed {
		apply(prev[c.Index], -1)
		apply(c.Instr, +1)
	}
	for _, instr := range d.Added {
		apply(instr, +1)
	}
	for v, c := range newRef {
		pc := prevRef[v]
		switch {
		case pc == 0 && c > 0:
			addNodes = append(addNodes, v)
		case pc > 0 && c <= 0:
			dropNodes = append(dropNodes, v)
			delete(newRef, v)
		case c <= 0:
			delete(newRef, v)
		}
	}
	sort.Ints(addNodes)
	sort.Ints(dropNodes)
	return wds, addNodes, dropNodes, newRef
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
// incrementally: the Dense snapshot is patched, components containing no
// touched value reuse their prior records, and only the dirty region
// re-runs the pipeline. The returned Allocation is bit-identical to a cold
// recompile of the edited program (Phases excepted — its timings and
// budget charges honestly reflect the incremental work). prev is never
// mutated; the returned state supersedes it.
func AssignDelta(prev *IncrState, d Delta, opt Options) (al Allocation, state *IncrState, stats IncrStats, err error) {
	st := incrPhaseState(opt, "assign_delta")
	defer func() {
		if r := recover(); r != nil {
			al, state, stats = Allocation{}, nil, IncrStats{}
			err = &budget.InternalError{Phase: "assign/" + st.phase, Value: r, Stack: debug.Stack()}
		}
	}()
	defer st.root.End()
	st.phase = "delta/validate"
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
	if err := st.meter.Canceled(); err != nil {
		return Allocation{}, nil, IncrStats{}, fmt.Errorf("assign: %w", err)
	}

	// A prior result produced under different options, or one that was
	// budget-dependent, cannot seed reuse: recompile in full (the fresh
	// state makes the next delta incremental again).
	if !prev.usable || prev.sig != incrSig(opt) || prev.dense == nil {
		stats.Full = true
		st.rec.Counter(telemetry.MIncrFull).Inc()
		al, state, err = st.solveCold(next, opt, &stats)
		return al, state, stats, err
	}

	start := time.Now()
	nodes0 := st.meter.Spent()
	st.phase = "delta/patch"
	wds, addNodes, dropNodes, newRef := deltaGraphEdits(prev.valRef, d, prev.instrs)
	psp := st.rec.StartSpan("incr_patch", st.root)
	snap := prev.dense.Patch(wds, addNodes, dropNodes)
	if psp != nil {
		psp.SetAttr("edge_deltas", int64(len(wds)))
		psp.SetAttr("nodes_added", int64(len(addNodes)))
		psp.SetAttr("nodes_dropped", int64(len(dropNodes)))
		psp.End()
	}

	// Dirty-region rule: a component is reusable iff it contains no
	// touched value AND the prior run had a component with the identical
	// value set (any edited instruction inside a component marks all its
	// operands touched, so merges are always dirty; splits either carry a
	// touched value or simply find no prior match). The instruction-list
	// comparison is a structural guard — the value-set match already
	// implies it for untouched components.
	st.phase = "delta/partition"
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
	st.rec.Counter(telemetry.MIncrDirty).Add(int64(stats.Dirty))
	st.rec.Counter(telemetry.MIncrReused).Add(int64(stats.Reused))

	st.phase = "delta/solve"
	fb, err := st.solveDirty(dirty, snap, opt, &stats)
	if err != nil {
		return Allocation{}, nil, IncrStats{}, fmt.Errorf("assign: delta: %w", err)
	}
	st.phase = "delta/stitch"
	al, ok := st.stitch(next, comps, opt)
	if !ok {
		stats = IncrStats{Full: true}
		st.rec.Counter(telemetry.MIncrFull).Inc()
		al, state, err = st.solveCold(next, opt, &stats)
		return al, state, stats, err
	}
	al.Degraded = fb != ""
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
		dense:  snap,
		valRef: newRef,
		comps:  comps,
		sig:    prev.sig,
		usable: fb == "" && !st.meter.Exhausted(),
	}
	return al, state, stats, nil
}
