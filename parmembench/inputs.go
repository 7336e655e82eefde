package main

import (
	"math/rand"
	"sort"
	"strconv"

	"parmem"
	"parmem/internal/benchprog"
)

// Every workload input is a pure function of the seed: the generators use
// only math/rand sources seeded from it, and the compiled suite streams they
// start from are deterministic outputs of the compiler.

// stream is one assign input: an instruction stream and the engine
// configuration it is assigned under.
type stream struct {
	Name   string  `json:"name"`
	Instrs [][]int `json:"instrs"`
	K      int     `json:"k"`
	// Backtrack selects the exhaustive duplication search (else hitting set).
	Backtrack bool `json:"backtrack,omitempty"`
}

// edit replaces the instruction at Index with Instr: a one-instruction
// delta.
type edit struct {
	Index int   `json:"index"`
	Instr []int `json:"instr"`
}

// compileInput is one paper-suite compile: a source under a strategy.
type compileInput struct {
	Name     string          `json:"name"`
	Src      string          `json:"src"`
	Strategy parmem.Strategy `json:"strategy"`
	// Check validates the simulated result; nil for synthetic programs.
	Check func(*parmem.Result) error `json:"-"`
}

// editSet is a base stream plus the edits applied to it: in sequence on
// engine-large, each forked from Base elsewhere (see genEdits).
type editSet struct {
	Base  stream `json:"base"`
	Edits []edit `json:"edits"`
}

// relabel renames the stream's values by a seeded permutation onto
// base+1..base+n, shuffles the instruction order and shuffles each
// instruction's operands. The conflict graph keeps its shape; the engine
// sees a stream it has never seen before.
func relabel(r *rand.Rand, instrs [][]int, base int) [][]int {
	ids := distinctValues(instrs)
	perm := r.Perm(len(ids))
	to := make(map[int]int, len(ids))
	for i, v := range ids {
		to[v] = base + perm[i] + 1
	}
	out := make([][]int, len(instrs))
	for i, in := range instrs {
		row := make([]int, len(in))
		for j, v := range in {
			row[j] = to[v]
		}
		r.Shuffle(len(row), func(a, b int) { row[a], row[b] = row[b], row[a] })
		out[i] = row
	}
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// distinctValues returns the sorted distinct value ids of a stream.
func distinctValues(instrs [][]int) []int {
	seen := map[int]bool{}
	var ids []int
	for _, in := range instrs {
		for _, v := range in {
			if !seen[v] {
				seen[v] = true
				ids = append(ids, v)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// components groups a stream's values into conflict components (values
// sharing an instruction, transitively), each sorted, in order of their
// smallest value.
func components(instrs [][]int) [][]int {
	parent := map[int]int{}
	var find func(int) int
	find = func(v int) int {
		p, ok := parent[v]
		if !ok {
			parent[v] = v
			return v
		}
		if p == v {
			return v
		}
		root := find(p)
		parent[v] = root
		return root
	}
	for _, in := range instrs {
		if len(in) == 0 {
			continue
		}
		for _, v := range in[1:] {
			if a, b := find(in[0]), find(v); a != b {
				parent[b] = a
			}
		}
		if len(in) == 1 {
			find(in[0])
		}
	}
	byRoot := map[int][]int{}
	for _, v := range distinctValues(instrs) {
		byRoot[find(v)] = append(byRoot[find(v)], v)
	}
	out := make([][]int, 0, len(byRoot))
	for _, vs := range byRoot {
		out = append(out, vs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// genEdits draws n one-instruction edits of instrs. Each edit replaces one
// operand of one instruction (of at least two operands) with another value:
// from the same conflict component normally, and from a different
// component every bridgeEvery-th edit, so that components merge. With
// chained set, each edit is drawn against the stream as the previous edits
// left it; otherwise every edit is drawn against instrs itself.
func genEdits(r *rand.Rand, instrs [][]int, n, bridgeEvery int, chained bool) []edit {
	cur := make([][]int, len(instrs))
	copy(cur, instrs)
	comps := components(instrs)
	compOf := map[int]int{}
	for ci, vs := range comps {
		for _, v := range vs {
			compOf[v] = ci
		}
	}
	var wide []int
	for i, in := range instrs {
		if len(in) >= 2 {
			wide = append(wide, i)
		}
	}
	if len(wide) == 0 {
		return nil
	}
	edits := make([]edit, 0, n)
	for len(edits) < n {
		idx := wide[r.Intn(len(wide))]
		in := cur[idx]
		slot := r.Intn(len(in))
		home := compOf[in[slot]]
		pool := comps[home]
		if bridgeEvery > 0 && len(edits)%bridgeEvery == bridgeEvery-1 && len(comps) > 1 {
			other := r.Intn(len(comps) - 1)
			if other >= home {
				other++
			}
			pool = comps[other]
		}
		v := pool[r.Intn(len(pool))]
		if contains(in, v) {
			continue // redraw: operands stay distinct
		}
		row := append([]int(nil), in...)
		row[slot] = v
		edits = append(edits, edit{Index: idx, Instr: row})
		if chained {
			cur[idx] = row
		}
	}
	return edits
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// applyEdit returns instrs with e applied (instrs is not modified).
func applyEdit(instrs [][]int, e edit) [][]int {
	out := make([][]int, len(instrs))
	copy(out, instrs)
	out[e.Index] = e.Instr
	return out
}

// paperSuiteInputs generates the paper-suite workload: the six paper
// programs plus three Synthetic(units) programs with seeded units, each
// compiled under STOR1, STOR2 and STOR3 in a seeded order.
func paperSuiteInputs(seed int64) []compileInput {
	r := rand.New(rand.NewSource(seed))
	type source struct {
		name  string
		src   string
		check func(*parmem.Result) error
	}
	var srcs []source
	for _, spec := range benchprog.All() {
		srcs = append(srcs, source{spec.Name, spec.Source, spec.Check})
	}
	// Three programs of 4-8 units each, always 18 units in all: the seed
	// moves work between the programs, not in or out of the workload.
	units := []int{6, 6, 6}
	for i := 0; i < 8; i++ {
		from, to := r.Intn(3), r.Intn(3)
		if units[from] > 4 && units[to] < 8 && from != to {
			units[from]--
			units[to]++
		}
	}
	for _, u := range units {
		srcs = append(srcs, source{name: "SYNTH" + strconv.Itoa(u), src: benchprog.Synthetic(u)})
	}
	var out []compileInput
	for _, s := range srcs {
		for _, st := range []parmem.Strategy{parmem.STOR1, parmem.STOR2, parmem.STOR3} {
			out = append(out, compileInput{Name: s.name + "/" + st.String(), Src: s.src, Strategy: st, Check: s.check})
		}
	}
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// suiteEditSets derives the paper-suite edit workload from the STOR1
// instruction streams of the suite programs: per stream, a seeded set of
// one-instruction edits that each fork from the compiled stream.
func suiteEditSets(seed int64, streams []stream, perStream int) []editSet {
	r := rand.New(rand.NewSource(seed ^ 0x5eed5))
	out := make([]editSet, 0, len(streams))
	for _, s := range streams {
		out = append(out, editSet{Base: s, Edits: genEdits(r, s.Instrs, perStream, 10, false)})
	}
	return out
}

// engineInputs is the engine-large workload.
type engineInputs struct {
	// Cold holds, per corpus shape, the relabelings that are cold-assigned
	// in turn.
	Cold [][]stream `json:"cold"`
	// Edits holds one chained edit run per corpus shape.
	Edits []editSet `json:"edits"`
}

// engineShape is one graph shape of engine-large and how many cold assigns
// and edits of it a pass makes.
type engineShape struct {
	stream
	relabels, coldPerPass, editsPerPass int
}

// engineShapes are the scaling-corpus shapes engine-large runs. The chains
// graph has 2100 values, past the 2048-node flat-bitset ceiling, so it is
// held in the blocked bitset, and its ten components keep both workers
// busy. The clusters graph stays on the flat bitset and is dominated by
// the backtracking duplication search. A pass makes one cold assign and
// one edit of the chains graph per 24 of the clusters graph, so the
// medians measure the clusters and each p99 lands inside the chains
// graph's distribution (near its 75th percentile), not in the tail of
// either shape, where it would swing from run to run.
func engineShapes() []engineShape {
	return []engineShape{
		{stream{Name: "chains", Instrs: benchprog.ChainInstrs(10, 210, 4), K: 8}, 2, 1, 1},
		{stream{Name: "clusters", Instrs: benchprog.ClusterInstrs(16, 14, 6), K: 6, Backtrack: true}, 12, 24, 24},
	}
}

// engineLargeInputs generates the relabelings of each shape and a chain of
// chainLen edits on a further relabeling of each.
func engineLargeInputs(seed int64, chainLen int) engineInputs {
	r := rand.New(rand.NewSource(seed))
	var in engineInputs
	for _, sh := range engineShapes() {
		var pool []stream
		for i := 0; i < sh.relabels; i++ {
			s := sh.stream
			s.Name = sh.Name + "/" + strconv.Itoa(i)
			s.Instrs = relabel(r, sh.Instrs, 0)
			pool = append(pool, s)
		}
		in.Cold = append(in.Cold, pool)
		base := sh.stream
		base.Name = sh.Name + "/edits"
		base.Instrs = relabel(r, sh.Instrs, 0)
		in.Edits = append(in.Edits, editSet{Base: base, Edits: genEdits(r, base.Instrs, chainLen, 10, true)})
	}
	return in
}

// fleetPoolSize is the number of hot streams fleet-mix prefills.
const fleetPoolSize = 48

// fleetShape returns the i-th graph of the fleet's size ladder (i taken
// mod 42): a chain of 50-400 values (k=8) for even i, a graph of 4-28
// 14-value clusters (k=6) for odd i, growing with i. Both use the
// daemon's default hitting-set duplication.
func fleetShape(i int) stream {
	j := i % 42 / 2
	if i%2 == 0 {
		n := 50 + j*350/20
		return stream{Name: "chain" + strconv.Itoa(n), Instrs: benchprog.ChainInstrs(1, n, 4), K: 8}
	}
	comps := 4 + j*24/20
	return stream{Name: "cluster" + strconv.Itoa(comps*14), Instrs: benchprog.ClusterInstrs(comps, 14, 6), K: 6}
}

// fleetHotPool returns the hot streams in Zipf rank order: the suite's
// compiled STOR1 streams, then seeded relabelings of the size ladder. The
// seed changes every stream's value ids and order, not its shape or rank,
// so the load's size profile is the same for every seed.
func fleetHotPool(seed int64, suite []stream) []stream {
	r := rand.New(rand.NewSource(seed))
	pool := append([]stream(nil), suite...)
	for i := 0; len(pool) < fleetPoolSize; i++ {
		s := fleetShape(i)
		s.Name = "hot/" + s.Name + "/" + strconv.Itoa(len(pool))
		s.Instrs = relabel(r, s.Instrs, 0)
		pool = append(pool, s)
	}
	return pool
}

// fleetSession returns client c's session base and its forked edits.
func fleetSession(seed int64, c, edits int) editSet {
	r := rand.New(rand.NewSource(seed*31 + int64(c) + 7))
	base := stream{Name: "session" + strconv.Itoa(c), Instrs: relabel(r, benchprog.ChainInstrs(4, 100, 4), 0), K: 8}
	return editSet{Base: base, Edits: genEdits(r, base.Instrs, edits, 10, false)}
}

// Fleet operation kinds.
const (
	opHot = iota
	opFresh
	opDelta
)

// fleetOp is one fleet-mix request of a client.
type fleetOp struct {
	Kind int `json:"kind"`
	// Hot indexes the hot pool (opHot); Edit indexes the session's edits
	// (opDelta); Fresh is a never-seen stream (opFresh).
	Hot   int     `json:"hot,omitempty"`
	Edit  int     `json:"edit,omitempty"`
	Fresh *stream `json:"fresh,omitempty"`
}

// fleetOps is client c's seeded request sequence: about 75% hot assigns
// drawn Zipf-distributed from the pool, 15% assigns of fresh streams (new
// value ids, so no cache level has seen them) and 10% session deltas.
type fleetOps struct {
	r            *rand.Rand
	zipf         *rand.Zipf
	c, n, edits  int
	start, fresh int
}

func newFleetOps(seed int64, c, edits int) *fleetOps {
	r := rand.New(rand.NewSource(seed*17 + int64(c) + 3))
	return &fleetOps{r: r, zipf: rand.NewZipf(r, 1.1, 1, fleetPoolSize-1), c: c, edits: edits, start: r.Intn(42)}
}

// next draws the client's next request.
func (g *fleetOps) next() fleetOp {
	g.n++
	switch u := g.r.Float64(); {
	case u < 0.75:
		return fleetOp{Kind: opHot, Hot: int(g.zipf.Uint64())}
	case u < 0.90:
		// Fresh streams walk the size ladder from a seeded start.
		g.fresh++
		s := fleetShape(g.start + g.fresh)
		s.Name = "fresh/" + s.Name
		// Value ids above any hot or session id, unique per client and op
		// (a stream has at most 400 values).
		s.Instrs = relabel(g.r, s.Instrs, 1_000_000+1000*(2*g.n+g.c))
		return fleetOp{Kind: opFresh, Fresh: &s}
	default:
		return fleetOp{Kind: opDelta, Edit: g.r.Intn(g.edits)}
	}
}

// oneEdit converts an edit to the engine's delta form.
func oneEdit(e edit) parmem.Delta {
	return parmem.Delta{Changed: []parmem.ChangedInstruction{{Index: e.Index, Instr: parmem.Instruction(e.Instr)}}}
}
