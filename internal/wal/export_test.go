package wal

// DirSyncs returns how many fsyncs of its directory the log has issued.
func (l *Log) DirSyncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirSyncs
}
