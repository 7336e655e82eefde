// Package conflict builds the access-conflict graph of Gupta & Soffa
// (PPOPP 1988, §2) from a stream of long instructions.
//
// An instruction is abstracted to the set of data values it fetches as
// operands; the operations themselves are irrelevant to memory-module
// assignment. Two values conflict when some instruction uses both: fetching
// them in parallel then requires them to live in different memory modules.
// conf(ni,nj) counts the number of instructions in which both appear; it is
// the edge weight that drives the coloring heuristic.
package conflict

import (
	"fmt"
	"sort"

	"parmem/internal/arena"
	"parmem/internal/graph"
)

// ValueID identifies a compile-time data value (a renamed definition of a
// variable or a temporary). IDs are small dense integers assigned by the
// front end.
type ValueID = int

// Instruction is the operand set of one long instruction: the data values it
// fetches in parallel. Order is irrelevant; duplicates are collapsed by
// Normalize because a single fetch serves every use of a value within one
// instruction.
type Instruction []ValueID

// Normalize returns the instruction's operand set sorted with duplicates
// removed. The receiver is not modified.
func (in Instruction) Normalize() Instruction {
	if len(in) == 0 {
		return nil
	}
	out := make(Instruction, len(in))
	copy(out, in)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// Normalize normalizes every instruction of a program fragment.
func Normalize(instrs []Instruction) []Instruction {
	out := make([]Instruction, len(instrs))
	for i, in := range instrs {
		out[i] = in.Normalize()
	}
	return out
}

// Build constructs the access-conflict graph for the given instructions.
// Every operand becomes a vertex (including operands that never conflict);
// the weight of edge {u,v} is conf(u,v), the number of instructions whose
// operand sets contain both u and v. The map graph it returns is the
// independent construction the oracle comparisons and the benchmark's
// layer timings start from; the engine builds Snapshot instead.
func Build(instrs []Instruction) *graph.Graph {
	sc := arena.Get()
	defer sc.Release()
	ids, conf := countPairs(instrs, sc)
	g := graph.New()
	for _, v := range ids {
		g.AddNode(v)
	}
	for key, w := range conf {
		g.AddEdgeWeight(ids[key>>32], ids[uint32(key)], w)
	}
	return g
}

// Snapshot builds the access-conflict graph of instrs straight into the
// dense snapshot the engine runs on: the graph Build returns, frozen. Its
// storage is borrowed from sc and only valid until sc is Reset or
// Released; a nil sc allocates it fresh.
func Snapshot(instrs []Instruction, sc *arena.Scratch) *graph.Dense {
	isc := arena.Get()
	defer isc.Release()
	ids, conf := countPairs(instrs, isc)
	return graph.FromPairs(ids, conf, sc)
}

// countPairs interns the operand values of instrs onto dense int32
// indices and counts every distinct pair once per instruction, in a map
// keyed by one packed uint64 per pair instead of two nested graph-map
// probes per occurrence. It returns the values in first-seen order and the
// counts keyed uint64(lo)<<32|uint64(hi) by index, both borrowed from sc.
func countPairs(instrs []Instruction, sc *arena.Scratch) ([]int, map[uint64]int) {
	intern := sc.IntInt32Map(len(instrs))
	ids := sc.Ints(len(instrs))[:0] // index -> value id, first-seen order
	conf := sc.PairMap(len(instrs))
	ops := Instruction(sc.Ints(16)[:0]) // reusable normalize buffer
	for _, in := range instrs {
		ops = normalizeInto(in, ops[:0])
		for i, v := range ops {
			vi, ok := intern[v]
			if !ok {
				vi = int32(len(ids))
				intern[v] = vi
				ids = append(ids, v)
			}
			// ops is sorted ascending and interning follows scan order only
			// for fresh values, so pack the pair by index as (lo,hi).
			for j := 0; j < i; j++ {
				ui := intern[ops[j]]
				lo, hi := ui, vi
				if lo > hi {
					lo, hi = hi, lo
				}
				conf[uint64(lo)<<32|uint64(hi)]++
			}
		}
	}
	return ids, conf
}

// normalizeInto is Instruction.Normalize with a caller-supplied buffer: it
// appends the sorted, deduplicated operand set of in to buf and returns the
// extended slice.
func normalizeInto(in Instruction, buf Instruction) Instruction {
	base := len(buf)
	buf = append(buf, in...)
	out := buf[base:]
	sort.Ints(out)
	w := 0
	for i := range out {
		if i == 0 || out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return buf[:base+w]
}

// Validate checks that no instruction has more distinct operands than the
// machine has memory modules; such an instruction could never be fetched in
// one cycle regardless of data placement and indicates a scheduler bug.
func Validate(instrs []Instruction, modules int) error {
	sc := arena.Get()
	defer sc.Release()
	buf := Instruction(sc.Ints(16)[:0])
	for i, in := range instrs {
		buf = normalizeInto(in, buf[:0])
		if n := len(buf); n > modules {
			return fmt.Errorf("instruction %d has %d distinct operands but the machine has %d memory modules", i, n, modules)
		}
	}
	return nil
}

// OpsTable holds the normalized (sorted, deduplicated) operand sets of an
// instruction stream in CSR form: one flat operand array plus per-
// instruction offsets. It replaces per-call Instruction.Normalize in the
// duplication hot loops; when built from a Scratch it is valid only for
// that arena scope.
type OpsTable struct {
	flat []ValueID
	off  []int32
}

// Len returns the number of instructions in the table.
func (t OpsTable) Len() int { return len(t.off) - 1 }

// Row returns the normalized operand set of instruction i. The slice
// aliases the table storage; callers must not modify it.
func (t OpsTable) Row(i int) Instruction { return Instruction(t.flat[t.off[i]:t.off[i+1]]) }

// NormalizeTable normalizes every instruction into one flat table backed
// by sc (a nil sc allocates fresh storage).
func NormalizeTable(instrs []Instruction, sc *arena.Scratch) OpsTable {
	total := 0
	for _, in := range instrs {
		total += len(in)
	}
	// Dedup only ever shrinks rows, so the flat buffer never regrows and
	// the row offsets stay valid.
	t := OpsTable{
		flat: sc.Ints(total)[:0],
		off:  sc.Int32s(len(instrs) + 1),
	}
	for i, in := range instrs {
		t.flat = []ValueID(normalizeInto(in, Instruction(t.flat)))
		t.off[i+1] = int32(len(t.flat))
	}
	return t
}

// appendCombKey appends the canonical dedup key bytes of a combination.
func appendCombKey(b []byte, comb []ValueID) []byte {
	for _, v := range comb {
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return b
}

// CombinationsTable enumerates, without repetition, every size-n subset of
// operands that occurs together in at least one instruction of the
// pre-normalized table (the sets S_i^n of paper Fig. 7). Each combination
// is sorted ascending; the result is sorted lexicographically. Rows with
// fewer than n operands contribute nothing. The returned combination
// slices are carved from sc and share its lifetime (nil sc allocates them
// fresh); internal dedup state is pooled either way.
func CombinationsTable(t OpsTable, n int, sc *arena.Scratch) [][]ValueID {
	if n <= 0 {
		return nil
	}
	isc := arena.Get()
	defer isc.Release()
	seen := isc.StrSet(0)
	kb := isc.Bytes(3 * n)[:0]
	// Combinations are appended to a flat chunk and carved by full slice
	// expressions; when append regrows the chunk, already carved slices
	// keep pointing into the previous (still live) backing array.
	flat := sc.Ints(64 * n)[:0]
	var out [][]ValueID
	for i := 0; i < t.Len(); i++ {
		ops := t.Row(i)
		if len(ops) < n {
			continue
		}
		forEachSubset(ops, n, func(comb []ValueID) {
			kb = appendCombKey(kb[:0], comb)
			if _, ok := seen[string(kb)]; !ok {
				seen[string(kb)] = struct{}{}
				flat = append(flat, comb...)
				out = append(out, flat[len(flat)-n:len(flat):len(flat)])
			}
		})
	}
	sort.Slice(out, func(i, j int) bool { return lessIntSlice(out[i], out[j]) })
	return out
}

// forEachSubset calls fn with every size-n subset of the sorted slice ops.
// The slice passed to fn is reused between calls.
func forEachSubset(ops []ValueID, n int, fn func([]ValueID)) {
	comb := make([]ValueID, n)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == n {
			fn(comb)
			return
		}
		for i := start; i <= len(ops)-(n-depth); i++ {
			comb[depth] = ops[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
