package raft

import (
	"encoding/binary"

	"prognosticator/internal/value"
)

// message is one RPC. Transports carry it as bytes: a kind byte, then its
// fields in the binary encoding of internal/value,
//
//	RequestVote:               term | last log index | last log term | candidate
//	VoteReply:                 term | granted
//	AppendEntries:             term | prev log index | prev log term | leader commit | leader | entries
//	AppendReply:               term | success | match index | conflict index
//	InstallSnapshotChunk:      term | index | snapshot term | offset | total | leader | data
//	InstallSnapshotChunkReply: term | index | next offset | done
//
// with integers as uvarints, booleans as the uvarint 0 or 1, strings and
// byte strings length-prefixed, and entries as the journal's append record
// writes them (appendEntryList).
type message interface {
	appendTo(b []byte) []byte
}

// Message kinds: the first byte of an encoded RPC.
const (
	msgRequestVote = iota + 1
	msgVoteReply
	msgAppendEntries
	msgAppendReply
	msgChunk
	msgChunkReply
)

func appendUvarints(b []byte, xs ...uint64) []byte {
	for _, x := range xs {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

func (m RequestVote) appendTo(b []byte) []byte {
	b = appendUvarints(append(b, msgRequestVote), m.Term, m.LastLogIndex, m.LastLogTerm)
	return value.AppendBytes(b, m.Candidate)
}

func (m VoteReply) appendTo(b []byte) []byte {
	return appendUvarints(append(b, msgVoteReply), m.Term, bit(m.Granted))
}

func (m AppendEntries) appendTo(b []byte) []byte {
	b = appendUvarints(append(b, msgAppendEntries), m.Term, m.PrevLogIndex, m.PrevLogTerm, m.LeaderCommit)
	return appendEntryList(value.AppendBytes(b, m.Leader), m.Entries)
}

func (m AppendReply) appendTo(b []byte) []byte {
	return appendUvarints(append(b, msgAppendReply), m.Term, bit(m.Success), m.MatchIndex, m.ConflictIndex)
}

func (m InstallSnapshotChunk) appendTo(b []byte) []byte {
	b = appendUvarints(append(b, msgChunk), m.Term, m.Index, m.SnapTerm, m.Offset, m.Total)
	return value.AppendBytes(value.AppendBytes(b, m.Leader), m.Data)
}

func (m InstallSnapshotChunkReply) appendTo(b []byte) []byte {
	return appendUvarints(append(b, msgChunkReply), m.Term, m.Index, m.NextOffset, bit(m.Done))
}

// readBit reads a boolean written as the uvarint 0 or 1.
func readBit(r *value.Reader) bool {
	v := r.Uvarint()
	if v > 1 {
		r.Fail("boolean %d", v)
	}
	return v == 1
}

// decodeMessage reads one RPC written by appendTo, refusing what decodeRecord
// refuses of a journal record: an unknown kind, a count or length the input
// cannot hold, trailing bytes. Entry commands and chunk data alias b.
func decodeMessage(b []byte) (message, error) {
	r := value.NewReader(b)
	var m message
	switch k := r.Byte(); k {
	case msgRequestVote:
		m = RequestVote{Term: r.Uvarint(), LastLogIndex: r.Uvarint(), LastLogTerm: r.Uvarint(), Candidate: r.Str()}
	case msgVoteReply:
		m = VoteReply{Term: r.Uvarint(), Granted: readBit(&r)}
	case msgAppendEntries:
		m = AppendEntries{Term: r.Uvarint(), PrevLogIndex: r.Uvarint(), PrevLogTerm: r.Uvarint(),
			LeaderCommit: r.Uvarint(), Leader: r.Str(), Entries: readEntryList(&r)}
	case msgAppendReply:
		m = AppendReply{Term: r.Uvarint(), Success: readBit(&r), MatchIndex: r.Uvarint(), ConflictIndex: r.Uvarint()}
	case msgChunk:
		m = InstallSnapshotChunk{Term: r.Uvarint(), Index: r.Uvarint(), SnapTerm: r.Uvarint(),
			Offset: r.Uvarint(), Total: r.Uvarint(), Leader: r.Str(), Data: r.Bytes()}
	case msgChunkReply:
		m = InstallSnapshotChunkReply{Term: r.Uvarint(), Index: r.Uvarint(), NextOffset: r.Uvarint(), Done: readBit(&r)}
	default:
		r.Fail("message kind %d", k)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return m, nil
}

// WireTypes returns nothing: messages travel as bytes. It stays for callers
// outside this module that still pass its result to tcpnet.Register.
func WireTypes() []any { return nil }
