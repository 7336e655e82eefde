package duplication

// Method selects the strategy core Cores runs.
type Method int

const (
	// MethodHittingSet is the global approach of paper Figs. 7, 9 and 10.
	MethodHittingSet Method = iota
	// MethodBacktrack is the per-instruction search of paper Fig. 6.
	MethodBacktrack
)

// Cores runs the strategy core m over in and returns its copy table —
// every value that gained storage mapped to its modules, values the core
// did not touch riding through from Initial — with the fallback taken: ""
// (none), "hittingset" (the backtracking search ran out of budget and
// handed the remaining placements to the hitting-set core) or
// "fullreplication" (remaining conflicting replicable values were copied
// to every module). Degraded copy tables are still correct; they just hold
// more copies.
//
// The result is not finished: pass it, possibly stitched together with the
// copies of components solved elsewhere, to Finish.
func Cores(in Input, m Method) (Copies, string, error) {
	if m == MethodBacktrack {
		return backtrackCore(in)
	}
	return hittingCore(in)
}
