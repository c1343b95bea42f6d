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
