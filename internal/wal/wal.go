// Package wal implements a segmented append-only write-ahead log with
// CRC-framed records. It is the file format of each node's one durable
// journal (internal/raft's FileStorage): term, vote, log entries, snapshots
// and the replica's applied-index hints. Records survive crashes up to the
// last fully written frame; a torn or corrupted tail is detected by per-record checksums
// (covering both the length header and the payload) and truncated on
// recovery, never propagated. Repair physically removes the damaged suffix
// so a reopened log continues from a verified-clean prefix.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// frame layout: 4-byte little-endian payload length, 4-byte CRC32C covering
// the length field and the payload, payload bytes. Including the length in
// the checksum means a bit flip in the header cannot redirect the reader
// into interpreting garbage as a validly framed record.
const frameHeader = 8

// DefaultSegmentSize is the rotation threshold.
const DefaultSegmentSize = 4 << 20

// MaxRecordSize bounds a single record; larger appends fail.
const MaxRecordSize = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameCRC computes the record checksum over the length header and payload.
func frameCRC(lenField []byte, payload []byte) uint32 {
	crc := crc32.Checksum(lenField, crcTable)
	return crc32.Update(crc, crcTable, payload)
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// ErrTooLarge is returned when a record exceeds MaxRecordSize.
var ErrTooLarge = errors.New("wal: record too large")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncOS (the default) leaves flushing to the OS page cache: a process
	// crash loses nothing, a machine crash may lose the unsynced tail.
	SyncOS SyncPolicy = iota
	// SyncAlways fsyncs after every append — what consensus state needs
	// before communicating a promise.
	SyncAlways
)

// String returns the policy name.
func (p SyncPolicy) String() string {
	if p == SyncAlways {
		return "always"
	}
	return "os"
}

// Log is a segmented write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	mu          sync.Mutex
	dir         string
	segmentSize int64
	cur         *os.File
	curIdx      int
	curSize     int64
	closed      bool

	sync SyncPolicy
	// unsynced reports that the current segment holds records written since
	// its last fsync.
	unsynced    bool
	syncedCount int64
	// dirSyncs counts fsyncs of dir, kept apart from syncedCount so that
	// Syncs still counts the fsyncs of records.
	dirSyncs int64
}

// Options configures Open.
type Options struct {
	// SegmentSize is the rotation threshold; 0 means DefaultSegmentSize.
	SegmentSize int64
	// Sync selects the fsync policy (default SyncOS).
	Sync SyncPolicy
}

// Open opens (or creates) a log in dir. Existing segments are preserved;
// new appends go to a fresh segment after the highest existing index.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize == 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 0
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	l := &Log{dir: dir, segmentSize: opts.SegmentSize, curIdx: next, sync: opts.Sync}
	if err := l.openSegment(); err != nil {
		if l.cur != nil {
			_ = l.cur.Close()
		}
		return nil, err
	}
	return l, nil
}

func segmentName(idx int) string { return fmt.Sprintf("%08d.wal", idx) }

func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".wal") {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSuffix(name, ".wal"))
		if err != nil {
			continue
		}
		out = append(out, idx)
	}
	sort.Ints(out)
	return out, nil
}

// SegmentPaths returns the absolute paths of all segments in dir, in log
// order. A missing directory yields an empty list.
func SegmentPaths(dir string) ([]string, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	out := make([]string, len(segs))
	for i, idx := range segs {
		out[i] = filepath.Join(dir, segmentName(idx))
	}
	return out, nil
}

func (l *Log) openSegment() error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.curIdx)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.cur = f
	l.curSize = 0
	l.unsynced = false
	return l.syncDirLocked()
}

// syncDirLocked fsyncs the log's directory on a SyncAlways log, making a
// segment's creation or removal durable: fsync(2) on a file does not persist
// its directory entry. A SyncOS log promises nothing after a machine crash,
// so it skips this as it skips the fsync of records.
func (l *Log) syncDirLocked() error {
	if l.sync != SyncAlways {
		return nil
	}
	d, err := os.Open(l.dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.dirSyncs++
	return nil
}

// Append writes one record and flushes it to the OS; the configured
// SyncPolicy decides whether it is also fsynced. It returns after the frame
// is fully written; rotation happens transparently.
func (l *Log) Append(payload []byte) error { return l.append(payload, l.sync == SyncAlways) }

// AppendNoSync writes one record like Append but never fsyncs it, whatever
// the policy: for a record whose loss its reader tolerates. It becomes
// durable with the next fsync of its segment — a later synced append, or,
// on a SyncAlways log, the rotation that closes the segment.
func (l *Log) AppendNoSync(payload []byte) error { return l.append(payload, false) }

func (l *Log) append(payload []byte, sync bool) error {
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("%w (%d bytes)", ErrTooLarge, len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], frameCRC(hdr[0:4], payload))
	if _, err := l.cur.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append header: %w", err)
	}
	if _, err := l.cur.Write(payload); err != nil {
		return fmt.Errorf("wal: append payload: %w", err)
	}
	l.curSize += int64(frameHeader + len(payload))
	l.unsynced = true
	if sync {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if l.curSize >= l.segmentSize {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Sync forces the current segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.unsynced = false
	l.syncedCount++
	return nil
}

// Syncs returns the number of fsync calls issued so far (for tests and
// policy diagnostics).
func (l *Log) Syncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncedCount
}

// rotateLocked closes the current segment and opens the next. On a
// SyncAlways log it first fsyncs a segment holding unsynced records: a
// machine crash that tore one of them would make Repair discard every later
// segment, fsynced records included.
func (l *Log) rotateLocked() error {
	if l.sync == SyncAlways && l.unsynced {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.cur.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	l.curIdx++
	return l.openSegment()
}

// Rotate forces a segment rotation: the current segment is closed and new
// appends go to a fresh segment. Snapshotting callers rotate before writing
// checkpoint records so the records land in a segment that survives a
// subsequent DropSegmentsBelow of the pre-checkpoint history.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.rotateLocked()
}

// CurrentSegment returns the index of the segment new appends go to.
func (l *Log) CurrentSegment() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.curIdx
}

// DropSegmentsBelow removes every segment with index < idx — the log-
// compaction primitive. The caller must have made the retained suffix
// self-contained first (write a checkpoint, Rotate, then drop below the new
// current segment): replay only ever sees segments in index order, so a
// crash between the checkpoint append and the drop replays old records
// followed by the checkpoint that supersedes them, never a gap. A SyncAlways
// log fsyncs its directory after removing any, as it does after creating a
// segment, so a machine crash cannot keep the drops and lose the checkpoint
// segment's directory entry.
func (l *Log) DropSegmentsBelow(idx int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	dropped := false
	for _, s := range segs {
		if s < idx && s != l.curIdx {
			if err := os.Remove(filepath.Join(l.dir, segmentName(s))); err != nil {
				return fmt.Errorf("wal: drop segment: %w", err)
			}
			dropped = true
		}
	}
	if !dropped {
		return nil
	}
	return l.syncDirLocked()
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.cur.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Stats describes the outcome of a verification, replay or repair scan.
type Stats struct {
	// Records is the number of intact records before any corruption point.
	Records int
	// Truncated reports whether a torn or corrupted record was found.
	Truncated bool
	// LostBytes counts the bytes at and after the corruption point, across
	// all segments (what a Repair would — or did — discard).
	LostBytes int64
	// BadSegment is the segment index holding the first corruption
	// (-1 when the log is clean).
	BadSegment int
	// BadOffset is the byte offset of the first corrupt frame within
	// BadSegment (-1 when the log is clean).
	BadOffset int64
}

// Replay invokes fn for every intact record across all segments in order.
// Replay stops at the FIRST torn or corrupted record and does not resume in
// later segments: everything after a corruption point is treated as lost,
// never silently skipped over (a mid-log gap would otherwise replay an
// inconsistent suffix). The returned Stats say how many records were intact
// and how much data (if any) follows the first corruption point; Repair
// physically truncates that suffix before new records are appended. A
// missing directory is an empty log, not an error. Replay may run on an
// open log but only observes completed appends.
func Replay(dir string, fn func(payload []byte) error) (Stats, error) {
	return scan(dir, fn)
}

// Verify scans the log without invoking any callback, locating the first
// corruption point if one exists.
func Verify(dir string) (Stats, error) {
	return scan(dir, nil)
}

// Repair truncates the log at the first corrupt or torn record: the damaged
// segment is cut back to its last intact frame and all later segments are
// removed. After Repair, Replay sees a clean log and a reopened Log appends
// records that extend the verified prefix. The returned Stats describe what
// was discarded. A clean (or missing) log is left untouched.
func Repair(dir string) (Stats, error) {
	st, err := Verify(dir)
	if err != nil || !st.Truncated {
		return st, err
	}
	if err := os.Truncate(filepath.Join(dir, segmentName(st.BadSegment)), st.BadOffset); err != nil {
		return st, fmt.Errorf("wal: repair truncate: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return st, err
	}
	for _, idx := range segs {
		if idx > st.BadSegment {
			if err := os.Remove(filepath.Join(dir, segmentName(idx))); err != nil {
				return st, fmt.Errorf("wal: repair remove segment: %w", err)
			}
		}
	}
	return st, nil
}

func scan(dir string, fn func(payload []byte) error) (Stats, error) {
	st := Stats{BadSegment: -1, BadOffset: -1}
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return st, nil
		}
		return st, err
	}
	for _, idx := range segs {
		path := filepath.Join(dir, segmentName(idx))
		if st.Truncated {
			// Everything after the corruption point is lost.
			if info, err := os.Stat(path); err == nil {
				st.LostBytes += info.Size()
			}
			continue
		}
		records, badOff, size, err := scanSegment(path, fn)
		st.Records += records
		if err != nil {
			return st, err
		}
		if badOff >= 0 {
			st.Truncated = true
			st.BadSegment = idx
			st.BadOffset = badOff
			st.LostBytes += size - badOff
		}
	}
	return st, nil
}

// scanSegment replays intact frames from path. It returns the record count,
// the offset of the first corrupt frame (-1 if the segment is clean), and
// the segment size. Only callback errors are returned as err.
func scanSegment(path string, fn func(payload []byte) error) (records int, badOff int64, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, -1, 0, fmt.Errorf("wal: replay open: %w", err)
	}
	defer func() { _ = f.Close() }()
	info, err := f.Stat()
	if err != nil {
		return 0, -1, 0, fmt.Errorf("wal: replay stat: %w", err)
	}
	size = info.Size()
	var off int64
	var hdr [frameHeader]byte
	for {
		if _, rerr := io.ReadFull(f, hdr[:]); rerr != nil {
			if rerr == io.EOF {
				return records, -1, size, nil // clean segment end
			}
			return records, off, size, nil // torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecordSize {
			return records, off, size, nil // corrupt length
		}
		payload := make([]byte, length)
		if _, rerr := io.ReadFull(f, payload); rerr != nil {
			return records, off, size, nil // torn payload
		}
		if frameCRC(hdr[0:4], payload) != crc {
			return records, off, size, nil // corrupt frame
		}
		off += int64(frameHeader) + int64(length)
		records++
		if fn != nil {
			if err := fn(payload); err != nil {
				return records, -1, size, err
			}
		}
	}
}
