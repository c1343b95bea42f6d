package replica

// JournalSyncs returns how many fsyncs node i's journal has issued.
func (c *Cluster) JournalSyncs(i int) int64 { return c.replica(i).journal.Syncs() }
