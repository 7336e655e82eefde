package coloring

import (
	"fmt"

	"parmem/internal/arena"
	"parmem/internal/graph"
)

// guptaSoffaDense is the urgency heuristic of paper Fig. 4 on the frozen
// dense graph core: the selection loop runs over the snapshot's CSR rows
// and index-addressed scratch slices instead of per-iteration maps and
// sorted copies. Degrees, weight rows and the S sums are d's own, so on a
// sub-snapshot they are the induced ones, as the heuristic requires.
//
// It is bit-identical to oracle.GuptaSoffaMap for every input: dense
// indices are assigned in ascending id order, so every "lowest id first"
// tie-break of the map implementation is "lowest index first" here, and
// both scan candidates in that same order.
func guptaSoffaDense(d *graph.Dense, opt Options) Result {
	k := opt.K
	if k < 1 {
		panic(fmt.Sprintf("coloring: K = %d, need at least one module", k))
	}
	// All selection-loop scratch (the urgency arrays) is borrowed from the
	// arena — the caller's shard when opt.Scratch is set, a pooled one
	// otherwise; only assign and Unassigned escape into the Result and stay
	// freshly allocated.
	sc := opt.Scratch
	if sc == nil {
		sc = arena.Get()
		defer sc.Release()
	}
	n := d.N()

	assign := make(map[int]int, n)
	asg := sc.Int32s(n) // module+1 per dense index; 0 = unassigned
	// asgBits mirrors asg != 0 as a bitset, so the per-candidate
	// assigned-neighbor scans run word-at-a-time through the adjacency rows.
	asgBits := sc.Uint64s(graph.BitsetWords(n))
	for v, m := range opt.Precolored {
		if m < 0 || m >= k {
			panic(fmt.Sprintf("coloring: precolored node %d has module %d outside [0,%d)", v, m, k))
		}
		if i := d.Index(v); i >= 0 {
			assign[v] = m
			asg[i] = int32(m) + 1
			graph.SetBit(asgBits, i)
		}
	}
	res := Result{Assign: assign}

	// S_ni = total outgoing weight under the directed-weight rule of
	// Fig. 4: edges leaving a node of degree < k weigh nothing, otherwise
	// conf(ni,nj) — which is the plain sum of the node's CSR weight row.
	s := sc.Ints(n)
	for i := int32(0); int(i) < n; i++ {
		if d.Deg(i) < k {
			continue
		}
		sum := 0
		for _, w := range d.WeightRow(i) {
			sum += int(w)
		}
		s[i] = sum
	}

	rest := sc.Bools(n)
	nrest := 0
	for i := range rest {
		if asg[i] == 0 {
			rest[i] = true
			nrest++
		}
	}

	// If nothing is precolored, seed with the maximum-S node, assigned to
	// module 0 (paper: ASSIGN(n_first) = M1). Ascending scan with strict
	// improvement keeps the lowest index on ties.
	if len(assign) == 0 && nrest > 0 {
		first := -1
		for i := 0; i < n; i++ {
			if rest[i] && (first == -1 || s[i] > s[first]) {
				first = i
			}
		}
		assign[d.ID(int32(first))] = 0
		asg[first] = 1
		graph.SetBit(asgBits, int32(first))
		rest[first] = false
		nrest--
	}

	used := sc.Bools(k)      // scratch: modules taken by assigned neighbors
	abuf := sc.Int32s(n)[:0] // assigned-neighbor scan buffer
	for nrest > 0 {
		// Choose n_next maximizing urgency U = (Σ incoming weight from
		// assigned neighbors) / K_nj, comparing fractions by
		// cross-multiplication; K_nj = 0 is infinite urgency (the node goes
		// to V_unassigned immediately). Ascending index scan + the strict
		// better() rules reproduce the map implementation's ordering.
		best, bestNum, bestDen := int32(-1), 0, 0
		for i := int32(0); int(i) < n; i++ {
			if !rest[i] {
				continue
			}
			for m := range used {
				used[m] = false
			}
			// Assigned neighbors of i, word-parallel through the bitset;
			// the CSR cursor j recovers each one's weight (both walks are
			// ascending, so the cursor only ever moves forward).
			abuf = d.RowAndInto(i, asgBits, abuf[:0])
			num := 0
			row, wts := d.Row(i), d.WeightRow(i)
			j := 0
			for _, u := range abuf {
				for row[j] != u {
					j++
				}
				used[asg[u]-1] = true
				if d.Deg(u) >= k { // wt(u,i): 0 when deg(u) < k
					num += int(wts[j])
				}
			}
			den := 0
			for m := 0; m < k; m++ {
				if !used[m] {
					den++
				}
			}
			if best == -1 || denseBetter(num, den, s[i], bestNum, bestDen, s[best]) {
				best, bestNum, bestDen = i, num, den
			}
		}

		rest[best] = false
		nrest--
		if bestDen == 0 {
			res.Unassigned = append(res.Unassigned, d.ID(best))
			continue
		}
		for m := range used {
			used[m] = false
		}
		abuf = d.RowAndInto(best, asgBits, abuf[:0])
		for _, u := range abuf {
			used[asg[u]-1] = true
		}
		m := lowestFree(used)
		assign[d.ID(best)] = m
		asg[best] = int32(m) + 1
		graph.SetBit(asgBits, best)
	}
	return res
}

// denseBetter reports whether candidate a = (aNum/aDen, tie aS) beats the
// incumbent b under the urgency comparison of Fig. 4. The caller scans
// candidates in ascending index order, so "equal" means the incumbent (the
// lower index) wins — exactly the a.v < b.v tie-break of the map version.
func denseBetter(aNum, aDen, aS, bNum, bDen, bS int) bool {
	// Infinite urgencies (den 0) first.
	if (aDen == 0) != (bDen == 0) {
		return aDen == 0
	}
	if aDen == 0 { // both infinite: higher num wins, ties keep the incumbent
		return aNum > bNum
	}
	l, r := aNum*bDen, bNum*aDen
	if l != r {
		return l > r
	}
	return aS > bS
}
