package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"

	"prognosticator/internal/wal"
)

// CorruptMode selects how CorruptTail damages a WAL.
type CorruptMode int

const (
	// CorruptTorn leaves a torn frame after the last record, as a crash in
	// the middle of an append does (a torn write).
	CorruptTorn CorruptMode = iota
	// CorruptBitFlip leaves a whole frame after the last record with one bit
	// flipped, as a crash does when an append's bytes reach the disk only in
	// part; the frame's checksum catches it.
	CorruptBitFlip
)

func (m CorruptMode) String() string {
	if m == CorruptTorn {
		return "torn"
	}
	return "bitflip"
}

// ErrNothingToCorrupt is returned when the WAL directory has no non-empty
// segment to damage.
var ErrNothingToCorrupt = errors.New("chaos: no wal data to corrupt")

// tornPayload is the payload of the frame CorruptTail damages.
var tornPayload = []byte("an append a crash cut short")

// CorruptTail damages the end of the last non-empty WAL segment in dir the
// way a crash in the middle of an append can: it adds a damaged frame after
// the last record and changes no record. A record a log holds was
// acknowledged once written — raft assumes its journal is stable storage —
// so damage to one is outside what a crash does. Recovery stops at the
// damaged frame and repair cuts it off. rng drives how many bytes of the
// frame are torn off or which bit flips.
func CorruptTail(dir string, mode CorruptMode, rng *rand.Rand) error {
	segs, err := wal.SegmentPaths(dir)
	if err != nil {
		return fmt.Errorf("chaos: corrupt tail: %w", err)
	}
	// Last non-empty segment: a freshly rolled segment may be empty.
	var target string
	for i := len(segs) - 1; i >= 0 && target == ""; i-- {
		info, err := os.Stat(segs[i])
		if err != nil {
			return fmt.Errorf("chaos: corrupt tail: %w", err)
		}
		if info.Size() > 0 {
			target = segs[i]
		}
	}
	if target == "" {
		return ErrNothingToCorrupt
	}
	// The frame as the WAL writes it: payload length, CRC32-C of the length
	// field and the payload, payload.
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(tornPayload)))
	crc := crc32.Update(crc32.Checksum(frame, castagnoli), castagnoli, tornPayload)
	frame = append(binary.LittleEndian.AppendUint32(frame, crc), tornPayload...)
	switch mode {
	case CorruptTorn:
		frame = frame[:len(frame)-1-rng.Intn(16)] // tear off 1..16 bytes
	case CorruptBitFlip:
		frame[rng.Intn(len(frame))] ^= byte(1 << uint(rng.Intn(8)))
	default:
		return fmt.Errorf("chaos: unknown corrupt mode %d", int(mode))
	}
	f, err := os.OpenFile(target, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("chaos: corrupt tail: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		_ = f.Close()
		return fmt.Errorf("chaos: corrupt tail: %w", err)
	}
	return f.Close()
}
