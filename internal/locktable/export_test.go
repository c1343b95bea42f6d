package locktable

// SetUnsafeLIFOGrants plants a deliberate ordering bug for mutation
// testing: grant scans pick the NEWEST compatible waiter instead of the
// FIFO prefix (see grantScanLIFO). Only safe for single-key workloads —
// multi-key transactions can deadlock under reversed grant order, which is
// one of the reasons the real table is FIFO.
func (t *Table) SetUnsafeLIFOGrants(on bool) { t.unsafeLIFO = on }
