package duplication

// Helpers of the internal tests, for the external oracle tests.
var (
	CheckAllFree    = checkAllFree
	RandomInstrs    = randomInstrs
	SolveBacktrack  = backtrack
	SolveHittingSet = hittingSet
)

// solve runs one strategy end to end, the way the assign engine does:
// Cores on workers goroutines, then the global Finish. It also returns the
// fallback Cores reported.
func solve(in Input, m Method, workers int) (Result, string, error) {
	copies, fb, err := Cores(in, m, workers)
	if err != nil {
		return Result{}, "", err
	}
	return Finish(in, copies), fb, nil
}

// backtrack and hittingSet are solve on one worker, fallback dropped.
func backtrack(in Input) (Result, error) {
	res, _, err := solve(in, MethodBacktrack, 1)
	return res, err
}

func hittingSet(in Input) (Result, error) {
	res, _, err := solve(in, MethodHittingSet, 1)
	return res, err
}
