package replica

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// StoreSnapshot is the application-level snapshot a replica takes of its
// store: the full live state at a raft index, plus the apply-side metadata
// needed to resume exactly where the snapshot was taken. Every field is a
// function of the log prefix through Index, so every replica encodes the
// snapshot at one index to the same bytes. The same encoded form serves
// two purposes: it is handed to raft.Compact, whose journal checkpoint is
// its durable copy and what crash recovery restores, and it is shipped
// verbatim inside InstallSnapshotChunk to far-behind followers.
type StoreSnapshot struct {
	// Index is the raft index of the last batch reflected in Pairs.
	Index uint64
	// Batches is the replica's batch count at capture.
	Batches int
	// Sessions is the dedup table at capture.
	Sessions Sessions
	// Pairs is the live state, sorted by key when encoded.
	Pairs []SnapPair
}

// SnapPair is one live key/value pair.
type SnapPair struct {
	Key value.Encoded
	Val value.Value
}

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// snapHeader frames an encoded snapshot: 4-byte little-endian payload
// length, then a CRC32-C of the payload. Mirrors the WAL frame so a torn or
// corrupted snapshot is detected, not half-restored.
const snapHeader = 8

// snapFormat is the first payload byte of a snapshot. snapFormatV1, a
// payload written before sessions, is still read: its dedup watermark is
// dropped and each batch ID it remembers becomes a session whose Seq 0
// executed, as a batch of that format decodes. A payload written as JSON,
// before the binary encoding existed, begins with '{' and is refused as an
// unknown format.
const (
	snapFormatV1 = 0x01
	snapFormat   = 0x02
)

// EncodeSnapshot serializes s with a CRC frame. Pairs are sorted in place.
// The payload is
//
//	snapFormat | Index | Batches | sessions | pair count | (key | value)...
//	sessions = session count | (ID | Low | entry count | (Seq | index)...)...
//
// in the binary encoding of internal/value (unsigned integers and counts as
// uvarints, Batches as a zigzag varint, strings length-prefixed, values as
// value.AppendBinary writes them), session IDs, Seqs and keys in ascending
// order, so every replica encodes the same state to the same bytes. Two
// pairs with one key are an error. A value is written however deep it
// nests, since a snapshot that refused a row the engine stored would stop
// every apply loop at the same index.
func EncodeSnapshot(s *StoreSnapshot) ([]byte, error) {
	sort.Slice(s.Pairs, func(i, j int) bool { return s.Pairs[i].Key < s.Pairs[j].Key })
	b := make([]byte, snapHeader, snapHeader+64+32*len(s.Pairs))
	b = append(b, snapFormat)
	b = binary.AppendUvarint(b, s.Index)
	b = binary.AppendVarint(b, int64(s.Batches))
	b = s.Sessions.append(b)
	b = binary.AppendUvarint(b, uint64(len(s.Pairs)))
	for i, p := range s.Pairs {
		if i > 0 && p.Key == s.Pairs[i-1].Key {
			return nil, fmt.Errorf("replica: encode snapshot: key %q twice", p.Key)
		}
		b = value.AppendBytes(b, p.Key)
		b = p.Val.AppendBinary(b)
	}
	payload := b[snapHeader:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, snapCRC))
	return b, nil
}

// DecodeSnapshot parses an encoded snapshot, verifying the CRC frame.
func DecodeSnapshot(data []byte) (*StoreSnapshot, error) {
	if len(data) < snapHeader {
		return nil, fmt.Errorf("replica: snapshot too short (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if uint64(snapHeader)+uint64(n) != uint64(len(data)) {
		return nil, fmt.Errorf("replica: snapshot length mismatch (header %d, body %d)", n, len(data)-snapHeader)
	}
	payload := data[snapHeader:]
	if crc32.Checksum(payload, snapCRC) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, fmt.Errorf("replica: snapshot CRC mismatch")
	}
	var s StoreSnapshot
	r := value.NewReader(payload)
	f := r.Byte()
	if f != snapFormat && f != snapFormatV1 {
		r.Fail("snapshot format %#x", f)
	}
	s.Index = r.Uvarint()
	s.Batches = int(r.Varint())
	if f == snapFormatV1 {
		r.Uvarint() // the dedup watermark, which sessions replace
	}
	s.Sessions = readSessions(&r, f)
	if n := r.Count(2); n > 0 { // a key length and a tag each
		s.Pairs = make([]SnapPair, n)
		for i := range s.Pairs {
			s.Pairs[i].Key = value.Encoded(r.Str())
			if i > 0 && s.Pairs[i].Key <= s.Pairs[i-1].Key {
				r.Fail("key %q after %q", s.Pairs[i].Key, s.Pairs[i-1].Key)
			}
			// A row nests as deep as transactions made it: no bound but
			// the payload's length.
			s.Pairs[i].Val = r.Value(len(payload))
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("replica: decode snapshot: %w", err)
	}
	return &s, nil
}

// append writes the table as a snapshot payload holds it.
func (s Sessions) append(b []byte) []byte {
	ids := make([]string, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	var seqs []uint64
	for _, id := range ids {
		ss := s[id]
		b = value.AppendBytes(b, id)
		b = binary.AppendUvarint(b, ss.Low)
		seqs = seqs[:0]
		for seq := range ss.Applied {
			seqs = append(seqs, seq)
		}
		slices.Sort(seqs)
		b = binary.AppendUvarint(b, uint64(len(seqs)))
		for _, seq := range seqs {
			b = binary.AppendUvarint(b, seq)
			b = binary.AppendUvarint(b, ss.Applied[seq])
		}
	}
	return b
}

// readSessions reads the dedup table of a payload in format f: what
// Sessions.append writes, or in the first format (ID | index) pairs, each
// an executed batch, read as Seq 0 of session ID.
func readSessions(r *value.Reader, f byte) Sessions {
	each := 3 // an ID length, a Low and an entry count
	if f == snapFormatV1 {
		each = 2 // an ID length and an index
	}
	n := r.Count(each)
	s := make(Sessions, n)
	prev := ""
	for i := 0; i < n; i++ {
		id := r.Str()
		if i > 0 && id <= prev {
			r.Fail("session %q after %q", id, prev)
		}
		prev = id
		if f == snapFormatV1 {
			s[id] = Session{Applied: map[uint64]uint64{0: r.Uvarint()}}
			continue
		}
		ss := Session{Low: r.Uvarint(), Applied: map[uint64]uint64{}}
		last := uint64(0)
		for j, m := 0, r.Count(2); j < m; j++ { // a Seq and an index each
			seq := r.Uvarint()
			if seq < ss.Low || (j > 0 && seq <= last) {
				r.Fail("session %q seq %d after %d (low %d)", id, seq, last, ss.Low)
			}
			ss.Applied[seq] = r.Uvarint()
			last = seq
		}
		s[id] = ss
	}
	return s
}

// CaptureStore flattens the store's live state at its current epoch into
// snapshot pairs.
func CaptureStore(st *store.Store) []SnapPair {
	var pairs []SnapPair
	st.ForEach(st.Epoch(), func(k value.Encoded, v value.Value) {
		pairs = append(pairs, SnapPair{Key: k, Val: v})
	})
	return pairs
}

// RestoreStore replaces st's contents with the snapshot's pairs.
func RestoreStore(st *store.Store, s *StoreSnapshot) {
	items := make(map[value.Encoded]value.Value, len(s.Pairs))
	for _, p := range s.Pairs {
		items[p.Key] = p.Val
	}
	st.Restore(items)
}

// WriteSnapshotFile durably writes an encoded snapshot to dir under its
// index name (tmp + fsync + rename). No replica reads or writes such a file:
// the journal's checkpoint is a snapshot's one durable copy. It stays for
// the benchmark's snapshot rung.
func WriteSnapshotFile(dir string, index uint64, encoded []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("replica: snapshot dir: %w", err)
	}
	tmp := filepath.Join(dir, "tmp.snap.partial")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("replica: snapshot write: %w", err)
	}
	if _, err := f.Write(encoded); err != nil {
		_ = f.Close()
		return fmt.Errorf("replica: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("replica: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("replica: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, fmt.Sprintf("%016d.snap", index))); err != nil {
		return fmt.Errorf("replica: snapshot rename: %w", err)
	}
	return nil
}
