package engine

// Fixtures shared with the external test package (pool_test.go), which must
// be external to import the baselines.
var (
	BankRegistry  = bankRegistry
	BankStore     = bankStore
	RandomBatches = randomBatches
	FuzzRegistry  = fuzzEngineRegistry
	FuzzStore     = fuzzStore
	FuzzBatches   = fuzzBatches
)

// UseFreshFrames makes e build a new execution frame for every transaction
// and drop it afterwards: the everything-fresh reference that frame reuse
// must be indistinguishable from.
func UseFreshFrames(e *Engine) { e.frames.fresh = true }
