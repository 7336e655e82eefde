package coloring

// Graph builders of the internal tests, for the external oracle tests.
var (
	CompleteGraph       = completeGraph
	CycleGraph          = cycleGraph
	RandomGraph         = randomGraph
	RandomConflictGraph = randomConflictGraph
)
