package assign

import (
	"slices"

	"parmem/internal/alloccache"
	"parmem/internal/arena"
)

// Cache hooks of the assignment engine. All keys are pure-memo
// signatures: they embed the exact subproblem bytes (original value ids
// included), so a hit returns precisely what the computation would have
// produced. Results that depended on budget state — a phase that degraded
// or ran under an exhausted meter — are never stored, so a hit can never
// resurrect a degraded answer into an unbudgeted run or vice versa.

// allocEntry memoizes a whole assignment.
type allocEntry struct {
	al Allocation
}

func (e *allocEntry) CloneEntry() alloccache.Entry {
	al := e.al
	al.Copies = e.al.Copies.Clone()
	al.Unassigned = append([]int(nil), e.al.Unassigned...)
	al.Forced = append([]int(nil), e.al.Forced...)
	al.Phases = append([]PhaseReport(nil), e.al.Phases...)
	return &allocEntry{al: al}
}

// assignKey signs a whole Assign call: the program and every option that
// influences the result. Workers is deliberately absent — it never
// changes the result — and so is the budget, because only
// budget-independent (non-degraded) results are stored.
func assignKey(p Program, opt Options) string {
	sc := arena.Get()
	defer sc.Release()
	k := alloccache.NewKey(sc.Bytes(1024))
	k.Str("assign")
	k.Int(opt.K)
	k.Int(int(opt.Strategy))
	k.Int(int(opt.Method))
	k.Int(opt.Groups)
	if opt.DisableAtoms {
		k.Int(1)
	} else {
		k.Int(0)
	}
	k.Int(len(p.Instrs))
	for _, instr := range p.Instrs {
		k.Ints(instr)
	}
	k.Ints(p.RegionOf)
	globals := sc.Ints(len(p.Global))[:0]
	for v, ok := range p.Global {
		if ok {
			globals = append(globals, v)
		}
	}
	slices.Sort(globals)
	k.Ints(globals)
	return k.String()
}
