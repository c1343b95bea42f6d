package raft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"prognosticator/internal/value"
	"prognosticator/internal/wal"
)

// Snapshot is a durable state-machine snapshot: Data is the application's
// opaque serialized state covering every log entry up to and including
// Index (whose term is Term).
type Snapshot struct {
	Index uint64
	Term  uint64
	Data  []byte
}

// Storage persists a node's durable Raft state: current term, vote,
// snapshot and the log tail above it. A node with storage survives
// crash-restart without violating election safety or log matching (it never
// re-votes in a term and never loses accepted entries).
type Storage interface {
	// SaveState durably records term and vote; called before any message
	// that communicates them.
	SaveState(term uint64, votedFor string) error
	// Append durably appends entries starting at firstIndex (1-based
	// logical index), truncating any previously stored suffix from that
	// index.
	Append(firstIndex uint64, entries []Entry) error
	// SaveSnapshot durably records snap together with the retained log
	// tail (entries with logical index > snap.Index), and may discard all
	// state below the snapshot.
	SaveSnapshot(snap Snapshot, tail []Entry) error
	// Load returns the persisted state; a fresh store returns zero values.
	// log[i] holds the entry at logical index snap.Index+1+i.
	Load() (term uint64, votedFor string, snap Snapshot, log []Entry, err error)
}

// FileStorage implements Storage as a WAL of binary records (see
// storageRecord). Each mutation is one framed record; Load replays them.
// SaveSnapshot compacts the journal: it rotates to a fresh segment, writes a
// checkpoint (state + snapshot + retained tail + applied hint) there, and
// drops all older segments. A crash between the checkpoint and the drop is
// safe — replay sees the old records followed by the checkpoint that
// supersedes them, never a gap.
//
// It is the node's one durable journal: the application adds its
// applied-index hints (SaveApplied), and recovers by reading the journal
// back (ReadJournal).
type FileStorage struct {
	log *wal.Log
	dir string
	// Cached so a snapshot checkpoint can re-record the current term and
	// vote without the caller threading them through.
	term  uint64
	voted string
	// applied is the newest applied-index hint, which a checkpoint
	// re-records. SaveApplied stores it before it writes its record and
	// SaveSnapshot reads it after rotating, so every hint lands in the
	// checkpoint, in a segment after it, or in both.
	applied atomic.Uint64
	// opened is the journal as OpenFileStorage read it, which the first
	// Load hands back instead of reading it again.
	opened *Journal
}

// storageRecord is one journal record. It is written in the binary encoding
// of internal/value: a kind byte, then
//
//	recState:   term | votedFor
//	recAppend:  first index | entry count | (term | command)...
//	recSnap:    index | term | data
//	recApplied: index
//
// with integers and counts as uvarints and strings and byte strings
// length-prefixed. It is the only format read: a record written as JSON,
// before that encoding existed, begins with '{' and is refused as an
// unknown kind.
type storageRecord struct {
	Kind     byte // recState | recAppend | recSnap | recApplied
	Term     uint64
	VotedFor string
	First    uint64
	Entries  []Entry
	Snap     *Snapshot
	Applied  uint64
}

// Record kinds: the first byte of a journal record.
const (
	recState   = 1
	recAppend  = 2
	recSnap    = 3
	recApplied = 4
)

// appendBinary appends rec's binary encoding to b.
func (rec *storageRecord) appendBinary(b []byte) []byte {
	b = append(b, rec.Kind)
	switch rec.Kind {
	case recState:
		b = binary.AppendUvarint(b, rec.Term)
		b = value.AppendBytes(b, rec.VotedFor)
	case recAppend:
		b = appendEntryList(binary.AppendUvarint(b, rec.First), rec.Entries)
	case recSnap:
		b = binary.AppendUvarint(b, rec.Snap.Index)
		b = binary.AppendUvarint(b, rec.Snap.Term)
		b = value.AppendBytes(b, rec.Snap.Data)
	case recApplied:
		b = binary.AppendUvarint(b, rec.Applied)
	default:
		panic(fmt.Sprintf("raft: storage record of kind %d", rec.Kind))
	}
	return b
}

// appendEntryList appends entries as a count followed by each entry's term
// and command: the one entry-list layout, of the journal's append record and
// of AppendEntries.
func appendEntryList(b []byte, entries []Entry) []byte {
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = value.AppendBytes(binary.AppendUvarint(b, e.Term), e.Cmd)
	}
	return b
}

// readEntryList reads what appendEntryList wrote, nil for no entries. The
// commands alias the reader's input.
func readEntryList(r *value.Reader) []Entry {
	n := r.Count(2) // a term and a command length each
	if n == 0 {
		return nil
	}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Term: r.Uvarint(), Cmd: r.Bytes()}
	}
	return entries
}

// decodeRecord reads one journal record, keeping only the fields its kind
// has. Entry commands and snapshot data share payload's memory.
func decodeRecord(payload []byte) (storageRecord, error) {
	var rec storageRecord
	r := value.NewReader(payload)
	switch rec.Kind = r.Byte(); rec.Kind {
	case recState:
		rec.Term = r.Uvarint()
		rec.VotedFor = r.Str()
	case recAppend:
		rec.First = r.Uvarint()
		rec.Entries = readEntryList(&r)
	case recSnap:
		rec.Snap = &Snapshot{Index: r.Uvarint(), Term: r.Uvarint(), Data: r.Bytes()}
	case recApplied:
		rec.Applied = r.Uvarint()
	default:
		r.Fail("record kind %#x", rec.Kind)
	}
	if err := r.End(); err != nil {
		return storageRecord{}, err
	}
	if rec.Kind == recAppend && rec.First == 0 {
		return storageRecord{}, errors.New("append with index 0")
	}
	return rec, nil
}

// OpenFileStorage opens (or creates) persistent Raft state in dir. Every
// record but an applied hint is fsynced before the append returns (a node
// must not communicate a term, vote or entry it could forget). The journal is
// read first: one it cannot decode is refused with that error and dir is
// left as it was, byte for byte. Then any torn or corrupted tail left by a
// previous crash is truncated before the log is reopened, so new appends
// always extend a verified-clean prefix; the read stopped at that same tail,
// so it is what the first Load returns.
func OpenFileStorage(dir string) (*FileStorage, error) {
	j, err := ReadJournal(dir)
	if err != nil {
		return nil, err
	}
	if _, err := wal.Repair(dir); err != nil {
		return nil, fmt.Errorf("raft: storage repair: %w", err)
	}
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return nil, fmt.Errorf("raft: storage: %w", err)
	}
	return &FileStorage{log: l, dir: dir, opened: &j}, nil
}

// Close releases the underlying log.
func (fs *FileStorage) Close() error { return fs.log.Close() }

// Syncs returns how many fsyncs the journal has issued.
func (fs *FileStorage) Syncs() int64 { return fs.log.Syncs() }

// append writes one record, fsynced unless it is an applied hint.
func (fs *FileStorage) append(rec storageRecord) error {
	write := fs.log.Append
	if rec.Kind == recApplied {
		write = fs.log.AppendNoSync
	}
	if err := write(rec.appendBinary(nil)); err != nil {
		return fmt.Errorf("raft: storage append: %w", err)
	}
	return nil
}

// SaveState implements Storage.
func (fs *FileStorage) SaveState(term uint64, votedFor string) error {
	fs.term, fs.voted = term, votedFor
	return fs.append(storageRecord{Kind: recState, Term: term, VotedFor: votedFor})
}

// Append implements Storage.
func (fs *FileStorage) Append(firstIndex uint64, entries []Entry) error {
	return fs.append(storageRecord{Kind: recAppend, First: firstIndex, Entries: entries})
}

// SaveApplied records an applied-index hint: the application has applied
// every entry up to index, which must be committed. The hint is not
// fsynced, since losing it only makes a recovery replay less of the journal
// and leave the rest to raft's redelivery. Unlike the Storage methods, which
// the node calls under its lock, it is called by the application, and may
// run concurrently with them.
func (fs *FileStorage) SaveApplied(index uint64) error {
	fs.applied.Store(index)
	return fs.append(storageRecord{Kind: recApplied, Applied: index})
}

// SaveSnapshot implements Storage: rotate to a fresh segment, checkpoint
// everything live (current state, the snapshot, the retained tail, an
// applied hint above the snapshot), fsync, then drop all segments before
// the checkpoint's first. A large checkpoint may itself span segments.
func (fs *FileStorage) SaveSnapshot(snap Snapshot, tail []Entry) error {
	if err := fs.log.Rotate(); err != nil {
		return fmt.Errorf("raft: storage rotate: %w", err)
	}
	first := fs.log.CurrentSegment()
	if err := fs.append(storageRecord{Kind: recState, Term: fs.term, VotedFor: fs.voted}); err != nil {
		return err
	}
	s := snap
	if err := fs.append(storageRecord{Kind: recSnap, Snap: &s}); err != nil {
		return err
	}
	if len(tail) > 0 {
		if err := fs.append(storageRecord{Kind: recAppend, First: snap.Index + 1, Entries: tail}); err != nil {
			return err
		}
	}
	if applied := fs.applied.Load(); applied > snap.Index {
		if err := fs.append(storageRecord{Kind: recApplied, Applied: applied}); err != nil {
			return err
		}
	}
	if err := fs.log.Sync(); err != nil {
		return fmt.Errorf("raft: storage sync: %w", err)
	}
	if err := fs.log.DropSegmentsBelow(first); err != nil {
		return fmt.Errorf("raft: storage compact: %w", err)
	}
	return nil
}

// Load implements Storage. The first call returns the journal as
// OpenFileStorage read it; a later one reads it again.
func (fs *FileStorage) Load() (uint64, string, Snapshot, []Entry, error) {
	j := fs.opened
	fs.opened = nil
	if j == nil {
		read, err := ReadJournal(fs.dir)
		if err != nil {
			return 0, "", Snapshot{}, nil, err
		}
		j = &read
	}
	fs.term, fs.voted = j.Term, j.VotedFor
	fs.applied.Store(j.Applied)
	return j.Term, j.VotedFor, j.Snap, j.Log, nil
}

// Journal is what a FileStorage journal holds.
type Journal struct {
	Term     uint64
	VotedFor string
	Snap     Snapshot
	// Log holds the entries above the snapshot: Log[i] is the entry at
	// index Snap.Index+1+i.
	Log []Entry
	// Applied is the newest applied-index hint. Hints are not fsynced, so
	// it may lag what the application applied; it never passes what was
	// committed.
	Applied uint64
	// Stats describes the scan, including any torn or corrupted tail it
	// stopped at.
	Stats wal.Stats
}

// ReadJournal replays the journal in dir without opening it for writing: a
// missing directory is an empty journal, and the replay stops at the first
// torn or corrupted record.
func ReadJournal(dir string) (Journal, error) {
	var j Journal
	var err error
	j.Stats, err = wal.Replay(dir, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("raft: storage decode: %w", err)
		}
		switch rec.Kind {
		case recState:
			j.Term, j.VotedFor = rec.Term, rec.VotedFor
		case recAppend:
			first, entries := rec.First, rec.Entries
			if first <= j.Snap.Index {
				// Prefix already covered by a later-read snapshot
				// checkpoint: keep only the part above it.
				drop := j.Snap.Index - first + 1
				if uint64(len(entries)) <= drop {
					return nil
				}
				entries = entries[drop:]
				first = j.Snap.Index + 1
			}
			pos := first - j.Snap.Index // 1-based position in the tail slice
			if pos <= uint64(len(j.Log)) {
				j.Log = j.Log[:pos-1]
			}
			j.Log = append(j.Log, entries...)
		case recSnap:
			// Re-base the tail: keep only entries above the new
			// snapshot index.
			if drop := rec.Snap.Index - j.Snap.Index; drop < uint64(len(j.Log)) {
				j.Log = append([]Entry(nil), j.Log[drop:]...)
			} else {
				j.Log = nil
			}
			j.Snap = *rec.Snap
		case recApplied:
			j.Applied = max(j.Applied, rec.Applied)
		}
		return nil
	})
	if err != nil {
		return Journal{}, err
	}
	return j, nil
}
