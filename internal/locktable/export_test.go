package locktable

import "prognosticator/internal/value"

// ExclusiveKeys builds an all-write lock list, the mode the original tests
// exercise and the planted-LIFO history test uses.
func ExclusiveKeys(keys []value.Encoded) []LockKey {
	out := make([]LockKey, len(keys))
	for i, k := range keys {
		out[i] = LockKey{Key: k, Write: true}
	}
	return out
}

// SetUnsafeLIFOGrants plants a deliberate ordering bug for mutation
// testing: grant scans pick the NEWEST compatible waiter instead of the
// FIFO prefix (see grantScanLIFO). Only safe for single-key workloads —
// multi-key transactions can deadlock under reversed grant order, which is
// one of the reasons the real table is FIFO.
func (t *Table) SetUnsafeLIFOGrants(on bool) { t.unsafeLIFO = on }
