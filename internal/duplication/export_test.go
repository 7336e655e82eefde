package duplication

// Helpers of the internal tests, for the external oracle tests.
var (
	CheckAllFree    = checkAllFree
	RandomInstrs    = randomInstrs
	SolveBacktrack  = backtrack
	SolveHittingSet = hittingSet
)

// solve runs one strategy end to end, the way the assign engine does:
// Cores, then the global Finish. It also returns the fallback Cores
// reported.
func solve(in Input, m Method) (Result, string, error) {
	copies, fb, err := Cores(in, m)
	if err != nil {
		return Result{}, "", err
	}
	return Finish(in, copies), fb, nil
}

// backtrack and hittingSet are solve with the fallback dropped.
func backtrack(in Input) (Result, error) {
	res, _, err := solve(in, MethodBacktrack)
	return res, err
}

func hittingSet(in Input) (Result, error) {
	res, _, err := solve(in, MethodHittingSet)
	return res, err
}
