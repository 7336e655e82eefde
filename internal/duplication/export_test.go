package duplication

// Helpers of the internal tests, for the external oracle tests.
var (
	CheckAllFree = checkAllFree
	RandomInstrs = randomInstrs
)
