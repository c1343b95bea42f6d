package raft

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// oneOfEach holds a message of every kind, with every field set.
var oneOfEach = []message{
	RequestVote{Term: 3, Candidate: "n1", LastLogIndex: 300, LastLogTerm: 2},
	VoteReply{Term: 3, Granted: true},
	AppendEntries{Term: 4, Leader: "n2", PrevLogIndex: 7, PrevLogTerm: 3, LeaderCommit: 6,
		Entries: []Entry{{Term: 4, Cmd: []byte("ab")}, {Term: 4}}},
	AppendReply{Term: 4, Success: true, MatchIndex: 9, ConflictIndex: 1},
	InstallSnapshotChunk{Term: 5, Leader: "n0", Index: 12, SnapTerm: 4, Offset: 64, Total: 130, Data: []byte{0, 0xff}},
	InstallSnapshotChunkReply{Term: 5, Index: 12, NextOffset: 66, Done: true},
}

// TestMessageLayout pins one message of each kind byte for byte: replicas of
// different builds must read each other's messages.
func TestMessageLayout(t *testing.T) {
	want := []string{
		"01" + "03" + "ac02" + "02" + "026e31", // term, last log index 300, last log term, candidate
		"02" + "03" + "01",                     // term, granted
		"03" + "04" + "07" + "03" + "06" + "026e32" + // term, prev index, prev term, commit, leader
			"02" + "04" + "026162" + "04" + "00", // two entries: {4 "ab"}, {4 ""}
		"04" + "04" + "01" + "09" + "01",                                // term, success, match, conflict
		"05" + "05" + "0c" + "04" + "40" + "8201" + "026e30" + "0200ff", // term, index, snap term, offset, total 130, leader, data
		"06" + "05" + "0c" + "42" + "01",                                // term, index, next offset, done
	}
	for i, m := range oneOfEach {
		if got := hex.EncodeToString(m.appendTo(nil)); got != want[i] {
			t.Errorf("%T encodes to %s\nwant             %s", m, got, want[i])
		}
	}
}

// TestMessageRoundTrip: every kind decodes to the message it was encoded
// from, and the decoded commands and chunk data alias the encoded bytes.
func TestMessageRoundTrip(t *testing.T) {
	for _, m := range append(oneOfEach, AppendEntries{Term: 1}, VoteReply{}, InstallSnapshotChunk{}) {
		enc := m.appendTo(nil)
		got, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("%T %x: %v", m, enc, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%+v came back as %+v", m, got)
		}
	}
	enc := oneOfEach[2].appendTo(nil)
	got, _ := decodeMessage(enc)
	enc[bytes.Index(enc, []byte("ab"))] = 'X'
	if cmd := got.(AppendEntries).Entries[0].Cmd; string(cmd) != "Xb" {
		t.Errorf("decoded command %q does not alias the message buffer", cmd)
	}
}

// TestMessageRejectsHostileInput: one message per class the decoder must
// drop rather than act on.
func TestMessageRejectsHostileInput(t *testing.T) {
	ae := oneOfEach[2].appendTo(nil)
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{0, 1}},
		{"unknown high kind", []byte{msgChunkReply + 1, 1, 1, 1, 1}},
		{"truncated", ae[:len(ae)-1]},
		{"trailing bytes", append(append([]byte(nil), ae...), 0)},
		{"entry count past end", []byte{msgAppendEntries, 1, 0, 0, 0, 0, 0x80, 0x80, 0x40, 1, 0}},
		{"command length past end", []byte{msgAppendEntries, 1, 0, 0, 0, 0, 1, 1, 0x80, 0x80, 0x40, 'c'}},
		{"chunk data past end", []byte{msgChunk, 1, 1, 1, 0, 1, 0, 0xff, 0x7f, 0}},
		{"candidate length past end", []byte{msgRequestVote, 1, 0, 0, 9, 'n'}},
		{"boolean 2", []byte{msgVoteReply, 1, 2}},
		{"varint not shortest", []byte{msgVoteReply, 0x81, 0x00, 1}},
	} {
		if m, err := decodeMessage(c.in); err == nil {
			t.Errorf("%s: %x decoded to %+v", c.name, c.in, m)
		}
	}
}

// FuzzRaftMessage feeds raw bytes to the message decoder, as a broken or
// hostile peer would: it must never panic nor allocate more than the
// decoded entries of the input could need, and any message it accepts
// re-encodes to exactly its own bytes and decodes back to itself.
func FuzzRaftMessage(f *testing.F) {
	for _, m := range oneOfEach {
		f.Add(m.appendTo(nil))
	}
	f.Add([]byte{msgAppendEntries, 1, 0, 0, 0, 0, 0x80, 0x80, 0x40, 1, 0}) // a million entries
	f.Add([]byte{msgChunk, 1, 1, 1, 0, 1, 0, 0xff, 0xff, 0x7f})            // 2 MiB of data
	f.Add([]byte{msgRequestVote, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})   // a 4 GiB candidate
	f.Fuzz(func(t *testing.T, data []byte) {
		var m message
		var err error
		// An entry takes at least two bytes of input and 32 of memory.
		if got := allocatedBytes(func() { m, err = decodeMessage(data) }); got > 32*uint64(len(data))+4096 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		enc := m.appendTo(nil)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x re-encodes to %x", data, enc)
		}
		again, err := decodeMessage(enc)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("%+v came back as %+v, %v", m, again, err)
		}
	})
}

// allocatedBytes reports how many bytes the heap handed out while f ran,
// the least of three runs: other goroutines allocate meanwhile.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestNodesShareNoMemory: a command reaches every node as bytes of its own,
// as it would over sockets. Flipping a byte of what one follower delivered
// leaves the leader's entry and the other follower's untouched.
func TestNodesShareNoMemory(t *testing.T) {
	c := newCluster(t, 3, 5)
	leader := c.waitLeader(3 * time.Second)
	c.proposeAndWait(leader, "mine", 2*time.Second)
	var followers []*Node
	for _, id := range c.ids {
		if c.nodes[id] != leader {
			followers = append(followers, c.nodes[id])
		}
	}
	cmd := func(n *Node) []byte { return drainAtLeast(t, n, 1, 2*time.Second)[0].Cmd }
	mine, theirs, other := cmd(leader), cmd(followers[0]), cmd(followers[1])
	theirs[0] ^= 0xff
	if string(mine) != "mine" || string(other) != "mine" {
		t.Fatalf("a follower's flipped byte shows in the leader's entry %q or the other follower's %q", mine, other)
	}
}
