package wal

// DirSyncs returns how many fsyncs of its directory the log has issued.
func (l *Log) DirSyncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirSyncs
}

// Syncs returns how many fsyncs of the cut segment and of the directory the
// Repair that returned s issued.
func (s Stats) Syncs() (file, dir int) { return s.fileSyncs, s.dirSyncs }
