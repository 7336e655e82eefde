package graph

import (
	"slices"
	"sort"
)

// This file implements delta patching of the frozen Dense snapshot for the
// incremental recompilation path. A program edit perturbs O(delta) conflict
// edges; Patch rebuilds only the touched CSR rows (copying the untouched
// spans wholesale when the vertex set is stable) and re-derives the bitset
// adjacency under the same ceiling rules as FromGraph, so the result is
// structurally indistinguishable from a cold FromGraph of the edited
// conflict graph — the canonical hash machinery keyed on (degree,index)
// ranks and sorted relabeled edges therefore sees identical input either
// way.

// WeightDelta is one undirected edge-weight adjustment by original vertex
// id: the weight of {U,V} changes by DW. A resulting weight <= 0 removes
// the edge. Conflict-graph weights are co-occurrence counts, so instruction
// removals decrement and additions increment symmetric pair counts.
type WeightDelta struct {
	U, V int
	DW   int32
}

// Patch returns a fresh Dense equal to rebuilding the edited graph from
// scratch: addNodes join the vertex set, dropNodes leave it, and every
// WeightDelta adjusts one edge weight (final weight <= 0 deletes the edge).
// The receiver is never mutated — prior results holding it stay valid for
// concurrent reads.
//
// Callers must drop every edge incident to a dropped node via deltas (the
// conflict-graph refcount arithmetic guarantees this: a value disappears
// only when no instruction uses it, and each using instruction's removal
// decrements all its pair counts); any surviving reference to an absent
// vertex is skipped defensively. Deltas naming vertices outside the new
// vertex set are ignored.
func (d *Dense) Patch(deltas []WeightDelta, addNodes, dropNodes []int) *Dense {
	// New vertex set, ascending.
	drop := make(map[int]bool, len(dropNodes))
	for _, v := range dropNodes {
		drop[v] = true
	}
	ids := make([]int, 0, len(d.ids)+len(addNodes))
	for _, v := range d.ids {
		if !drop[v] {
			ids = append(ids, v)
		}
	}
	for _, v := range addNodes {
		if d.Index(v) < 0 && !drop[v] {
			ids = append(ids, v)
		}
	}
	sort.Ints(ids)
	ids = slices.Compact(ids)

	n := len(ids)
	nd := &Dense{ids: ids, off: make([]int32, n+1)}

	// Group deltas per endpoint id, both directions, keeping only vertices
	// present in the new set.
	type rowDelta struct {
		other int // neighbor original id
		dw    int32
	}
	rowDeltas := make(map[int][]rowDelta, 2*len(deltas))
	for _, wd := range deltas {
		if wd.U == wd.V {
			continue
		}
		if nd.Index(wd.U) < 0 || nd.Index(wd.V) < 0 {
			continue
		}
		rowDeltas[wd.U] = append(rowDeltas[wd.U], rowDelta{wd.V, wd.DW})
		rowDeltas[wd.V] = append(rowDeltas[wd.V], rowDelta{wd.U, wd.DW})
	}

	// A stable vertex set keeps every dense index fixed, so untouched CSR
	// rows are verbatim copies; otherwise indices shift and every row is
	// translated through the id space.
	sameIDs := n == len(d.ids)
	if sameIDs {
		for i, v := range ids {
			if d.ids[i] != v {
				sameIDs = false
				break
			}
		}
	}

	// First pass: new degrees. Second pass: fill rows.
	type mergedRow struct {
		nbr []int32
		wt  []int32
	}
	merged := make(map[int32]mergedRow, len(rowDeltas))
	mergeRow := func(i int32) mergedRow {
		v := ids[i]
		dl := rowDeltas[v]
		sort.Slice(dl, func(a, b int) bool { return dl[a].other < dl[b].other })
		// Coalesce repeated deltas against the same neighbor.
		cl := dl[:0]
		for _, e := range dl {
			if len(cl) > 0 && cl[len(cl)-1].other == e.other {
				cl[len(cl)-1].dw += e.dw
			} else {
				cl = append(cl, e)
			}
		}
		var oldRow, oldWt []int32
		if oi := d.Index(v); oi >= 0 {
			oldRow, oldWt = d.Row(oi), d.WeightRow(oi)
		}
		row := mergedRow{}
		j := 0
		emit := func(u int32, w int32) {
			if w > 0 {
				row.nbr = append(row.nbr, u)
				row.wt = append(row.wt, w)
			}
		}
		for k, oi := range oldRow {
			uid := d.ids[oi]
			ui := nd.Index(uid)
			if ui < 0 {
				continue // neighbor dropped
			}
			w := oldWt[k]
			for j < len(cl) && cl[j].other < uid {
				emit(nd.Index(cl[j].other), cl[j].dw)
				j++
			}
			if j < len(cl) && cl[j].other == uid {
				w += cl[j].dw
				j++
			}
			emit(ui, w)
		}
		for ; j < len(cl); j++ {
			emit(nd.Index(cl[j].other), cl[j].dw)
		}
		// Both walks emit in ascending id order and the id→index remap is
		// monotone, so the row is born sorted.
		return row
	}

	total := 0
	for i := 0; i < n; i++ {
		v := ids[i]
		_, touched := rowDeltas[v]
		if oi := d.Index(v); sameIDs && !touched && oi >= 0 {
			total += d.Deg(oi)
		} else {
			r := mergeRow(int32(i))
			merged[int32(i)] = r
			total += len(r.nbr)
		}
		nd.off[i+1] = int32(total)
	}
	nd.nbr = make([]int32, total)
	nd.wt = make([]int32, total)
	nd.numEdges = total / 2

	for i := 0; i < n; i++ {
		dst := nd.nbr[nd.off[i]:nd.off[i+1]]
		dwt := nd.wt[nd.off[i]:nd.off[i+1]]
		if r, ok := merged[int32(i)]; ok {
			copy(dst, r.nbr)
			copy(dwt, r.wt)
			continue
		}
		oi := d.Index(ids[i])
		copy(dst, d.Row(oi))
		copy(dwt, d.WeightRow(oi))
	}

	nd.buildBitsets(nil)
	return nd
}
