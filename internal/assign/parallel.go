package assign

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"parmem/internal/arena"
	"parmem/internal/atoms"
	"parmem/internal/coloring"
	"parmem/internal/graph"
	"parmem/internal/telemetry"
)

// This file is the parallel side of the assignment engine: per-atom
// coloring fanned across a bounded worker pool.
//
// Determinism contract. The sequential colorPhase colors atoms in reverse
// carve order with three pieces of shared state: the precoloring (read
// only), the accumulated assignment (an atom reads it only for its own
// vertices, which can have been written only by a *later-carved* atom
// sharing those vertices — separator vertices) and the removed set (same
// property). So atom i depends exactly on the atoms j > i that share at
// least one vertex with it. Scheduling atoms level by level over that
// dependency DAG — every dependency strictly earlier — gives each atom a
// view of the shared state identical to the sequential run's, and the
// merged result is bit-identical no matter how many workers run.

// workerCount resolves Options.Workers: 0 means one worker per available
// CPU, anything below 2 disables the parallel paths.
func (opt Options) workerCount() int {
	if opt.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if opt.Workers < 1 {
		return 1
	}
	return opt.Workers
}

// atomColorResult is one atom's coloring outcome.
type atomColorResult struct {
	assign     map[int]int
	unassigned []int
}

// colorOneAtom colors one atom of the decomposition of work on its
// induced sub-snapshot, against the given views of the shared state. The
// views must already reflect every atom this one depends on. The span
// (parented under the current phase) carries the atom's size, outcome and
// worker lane.
//
// sc supplies every borrowed buffer, including the sub-snapshot and the
// colorer's own scratch (via coloring.Options.Scratch); the caller owns it
// and Resets it between atoms.
func colorOneAtom(st *phaseState, work *graph.Dense, a atoms.Atom, removed map[int]bool, assigned, pre map[int]int, opt Options, lane int64, sc *arena.Scratch) *atomColorResult {
	sp := st.rec.StartSpan("atom", st.span)
	if sp != nil {
		sp.SetLane(lane)
		sp.SetAttr("size", int64(len(a.Nodes)))
		defer sp.End()
	}
	st.rec.Counter(telemetry.MColorings).Inc()
	// Vertices a previously processed atom failed to color are no longer
	// coloring candidates anywhere: they will be replicated, and the SDR
	// checks of the duplication stage cover their conflicts. The colorer
	// only reads Precolored, so the map can live in the arena.
	keep := sc.Int32s(len(a.Nodes))[:0]
	preA := sc.IntMap(len(a.Nodes))
	for _, v := range a.Nodes {
		if removed[v] {
			continue
		}
		keep = append(keep, work.Index(v))
		if m, ok := pre[v]; ok {
			preA[v] = m
		}
		if m, ok := assigned[v]; ok {
			preA[v] = m // separator vertex colored by a later atom
		}
	}
	res := color(work.Sub(keep, sc), coloring.Options{K: opt.K, Precolored: preA, Scratch: sc})
	sp.SetAttr("unassigned", int64(len(res.Unassigned)))
	return &atomColorResult{assign: res.Assign, unassigned: res.Unassigned}
}

// colorAtoms colors every atom of dec, the decomposition of work, in
// reverse carve order, sequentially or across a worker pool depending on
// opt. It returns the merged assignment and the sorted, deduplicated
// unassigned set.
func colorAtoms(st *phaseState, work *graph.Dense, dec atoms.Decomposition, pre map[int]int, opt Options) (map[int]int, []int) {
	workers := opt.workerCount()
	if workers < 2 || len(dec.Atoms) < 2 {
		return colorAtomsSeq(st, work, dec, pre, opt)
	}
	return colorAtomsParallel(st, work, dec, pre, opt, workers)
}

func colorAtomsSeq(st *phaseState, work *graph.Dense, dec atoms.Decomposition, pre map[int]int, opt Options) (map[int]int, []int) {
	assigned := map[int]int{}
	removed := map[int]bool{}
	var unassigned []int
	sc := arena.Get()
	defer sc.Release()
	for i := len(dec.Atoms) - 1; i >= 0; i-- {
		res := colorOneAtom(st, work, dec.Atoms[i], removed, assigned, pre, opt, 0, sc)
		sc.Reset()
		for v, m := range res.assign {
			assigned[v] = m
		}
		for _, v := range res.unassigned {
			removed[v] = true
			unassigned = append(unassigned, v)
		}
	}
	sort.Ints(unassigned)
	return assigned, dedupSorted(unassigned)
}

// atomLevels computes a topological leveling of the atom dependency DAG:
// atom i depends on every atom j > i sharing a vertex with it, and
// level(i) > level(j) for each dependency. Atoms within one level are
// pairwise vertex-disjoint from each other's dependencies and can be
// colored concurrently against a frozen view of the shared state.
func atomLevels(as []atoms.Atom) [][]int {
	holders := map[int][]int{} // vertex -> atoms containing it, ascending
	for i, a := range as {
		for _, v := range a.Nodes {
			holders[v] = append(holders[v], i)
		}
	}
	level := make([]int, len(as))
	// Process in reverse carve order (the sequential execution order); each
	// atom's dependencies all have larger indices, so their levels are
	// already final.
	for i := len(as) - 1; i >= 0; i-- {
		lv := 0
		for _, v := range as[i].Nodes {
			for _, j := range holders[v] {
				if j > i && level[j]+1 > lv {
					lv = level[j] + 1
				}
			}
		}
		level[i] = lv
	}
	max := 0
	for _, lv := range level {
		if lv > max {
			max = lv
		}
	}
	out := make([][]int, max+1)
	for i := range as {
		out[level[i]] = append(out[level[i]], i)
	}
	// Within a level, keep reverse carve order so the merge below applies
	// results in the sequential order.
	for _, idxs := range out {
		sort.Sort(sort.Reverse(sort.IntSlice(idxs)))
	}
	return out
}

func colorAtomsParallel(st *phaseState, work *graph.Dense, dec atoms.Decomposition, pre map[int]int, opt Options, workers int) (map[int]int, []int) {
	assigned := map[int]int{}
	removed := map[int]bool{}
	var unassigned []int

	// Pool-utilization instruments, resolved once per call; nil when
	// telemetry is off, making every update below a no-op.
	busyWorkers := st.rec.Gauge(telemetry.MPoolBusyWorkers)
	busyNanos := st.rec.Counter(telemetry.MPoolBusyNanos)

	// One arena shard per worker for the whole phase: a fixed pool of
	// `workers` goroutines pulls atom slots off a channel, each coloring
	// against its private Scratch (Reset between atoms), so the global
	// sync.Pool is touched exactly once per phase instead of once per atom
	// — the cross-core contention point the scaling curve exposed.
	shards := arena.GetShards(workers)
	defer shards.Release()

	for _, idxs := range atomLevels(dec.Atoms) {
		results := make([]*atomColorResult, len(idxs))
		panics := make([]any, len(idxs))
		slots := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := shards.Worker(w)
				for slot := range slots {
					func(slot int) {
						defer func() {
							if r := recover(); r != nil {
								panics[slot] = r
							}
						}()
						if st.rec != nil {
							busyWorkers.Add(1)
							t0 := time.Now()
							defer func() {
								busyNanos.Add(time.Since(t0).Nanoseconds())
								busyWorkers.Add(-1)
							}()
						}
						// The shared views are read-only for the whole
						// level; every dependency of idxs[slot] finished in
						// an earlier level. Lanes are 1-based worker
						// numbers, stable for the whole phase, so the
						// Chrome exporter renders one track per worker.
						results[slot] = colorOneAtom(st, work, dec.Atoms[idxs[slot]], removed, assigned, pre, opt, int64(w)+1, sc)
					}(slot)
					sc.Reset()
				}
			}(w)
		}
		for slot := range idxs {
			slots <- slot
		}
		close(slots)
		wg.Wait()
		for _, r := range panics {
			if r != nil {
				// Re-raise on the caller's goroutine; the Assign boundary
				// converts it into a *budget.InternalError as usual.
				panic(r)
			}
		}
		// Merge in reverse carve order — the sequential order — so the
		// resulting maps and lists are built exactly as colorAtomsSeq
		// builds them.
		for _, r := range results {
			for v, m := range r.assign {
				assigned[v] = m
			}
			for _, v := range r.unassigned {
				removed[v] = true
				unassigned = append(unassigned, v)
			}
		}
	}
	sort.Ints(unassigned)
	return assigned, dedupSorted(unassigned)
}
