// Package raft implements a compact Raft consensus core — leader election,
// log replication and commitment (Ongaro & Ousterhout) — sufficient to
// totally order transaction batches across replicas, the role the paper
// assigns to its consensus layer (§III-A: clients "agree on the order of
// transactions within each batch ... by relying on a consensus algorithm
// [17], [24]").
//
// Scope: optional WAL-backed persistence of term/vote/log (see Storage; its
// FileStorage journal is also where the application records how far it has
// applied, and what it recovers from), plus snapshot-based log compaction:
// the application hands the node an opaque snapshot of its state machine at
// a committed index (Compact), the log prefix up to that index is
// discarded, and followers too far behind the compacted log are caught up
// with InstallSnapshotChunk RPCs instead of entry replay. Safety properties (election safety — including across restarts —
// log matching, leader completeness for committed entries) are exercised by
// the tests in this package over the memnet fault-injecting transport.
package raft

import (
	"slices"
	"sync"
	"time"

	"prognosticator/internal/memnet"
	"prognosticator/internal/vclock"
)

// Role is a Raft server state.
type Role int

// Raft roles.
const (
	Follower Role = iota + 1
	Candidate
	Leader
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case Leader:
		return "leader"
	case Candidate:
		return "candidate"
	default:
		return "follower"
	}
}

// Entry is one replicated log record.
type Entry struct {
	Term uint64
	Cmd  []byte
}

// Committed is delivered on the apply channel for each committed entry, in
// log order. When Snapshot is non-nil the record is not a log entry but an
// installed state-machine snapshot covering every index ≤ Index; the
// consumer must restore from it instead of applying Cmd.
type Committed struct {
	Index    uint64 // 1-based log index
	Term     uint64
	Cmd      []byte
	Snapshot []byte
}

// Transport moves encoded RPCs between nodes: memnet.Endpoint in process,
// internal/tcpnet over real sockets, both through one memnet fault filter.
// Send takes msg over for good. Every message Inbox delivers has a buffer of
// its own, which the commands decoded from it alias. A message that does not
// decode is dropped, like a lost datagram.
type Transport interface {
	Send(to string, msg []byte)
	Inbox() <-chan memnet.Message
}

// RPC wire types; message describes their encoding.

// RequestVote solicits a vote for Candidate in Term.
type RequestVote struct {
	Term         uint64
	Candidate    string
	LastLogIndex uint64
	LastLogTerm  uint64
}

// VoteReply answers a RequestVote.
type VoteReply struct {
	Term    uint64
	Granted bool
}

// AppendEntries replicates log entries (empty = heartbeat).
type AppendEntries struct {
	Term         uint64
	Leader       string
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit uint64
}

// AppendReply answers an AppendEntries.
type AppendReply struct {
	Term    uint64
	Success bool
	// MatchIndex is the highest index known replicated on the follower
	// when Success; on failure, ConflictIndex hints where to back up to.
	MatchIndex    uint64
	ConflictIndex uint64
}

// InstallSnapshotChunk ships one contiguous piece of the leader's
// state-machine snapshot to a follower whose next needed entry has been
// compacted away; a snapshot no larger than Config.SnapshotChunkSize is a
// transfer of one chunk (Offset 0, Done on the first reply). The follower
// stages chunks in arrival order (Offset must equal the bytes it
// already holds) and installs once the buffer reaches Total. A chunk whose
// Offset does not match is answered with the follower's actual cursor, so a
// transfer interrupted by loss — or restarted from scratch after a follower
// crash — resumes from wherever the follower really is instead of the
// leader's guess.
type InstallSnapshotChunk struct {
	Term     uint64
	Leader   string
	Index    uint64 // last log index covered by the full snapshot
	SnapTerm uint64 // term of that entry
	Offset   uint64 // byte offset of Data within the snapshot
	Total    uint64 // full snapshot size in bytes
	Data     []byte
}

// InstallSnapshotChunkReply acknowledges one chunk. NextOffset is the
// follower's staging cursor — the byte offset it needs next — and is the
// resume point the leader continues from. Done reports the snapshot fully
// installed (NextOffset == Total).
type InstallSnapshotChunkReply struct {
	Term       uint64
	Index      uint64 // snapshot index the transfer is for
	NextOffset uint64
	Done       bool
}

// Config tunes timing. Zero values select defaults suitable for in-process
// tests (short timeouts).
type Config struct {
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	HeartbeatInterval  time.Duration
	// SnapshotChunkSize is the largest piece of a snapshot shipped in one
	// InstallSnapshotChunk message; a bigger snapshot streams as
	// offset-addressed chunks of this size with per-chunk acks and resume
	// (default 256 KiB).
	SnapshotChunkSize int
	// Clock is the time source for election and heartbeat timers. Nil uses
	// the wall clock; a vclock.Sim clock runs the node in virtual time, where
	// the event loop is a cooperative actor of the simulation (Start must
	// then be called from inside Sim.Run).
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.ElectionTimeoutMin == 0 {
		c.ElectionTimeoutMin = 150 * time.Millisecond
	}
	if c.ElectionTimeoutMax == 0 {
		c.ElectionTimeoutMax = 300 * time.Millisecond
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 40 * time.Millisecond
	}
	if c.SnapshotChunkSize == 0 {
		c.SnapshotChunkSize = 256 << 10
	}
	return c
}

// Node is one Raft server.
type Node struct {
	id     string
	idHash uint64
	peers  []string
	cfg    Config
	ep     Transport
	clk    vclock.Clock
	seed   int64

	mu   sync.Mutex
	role Role
	term uint64

	votedFor string
	// log holds the entries AFTER snap.Index: logical index i lives at
	// log[i-snap.Index-1]. snap is the zero value until the first Compact
	// or InstallSnapshotChunk.
	log         []Entry
	snap        Snapshot
	commitIndex uint64
	votes       map[string]bool
	nextIndex   map[string]uint64
	matchIndex  map[string]uint64
	// commitSent is, per peer, the commit index the peer reaches if it
	// accepts what it was last sent: LeaderCommit bounded by the last index
	// that message covered. notifyCommitLocked sends when it falls behind.
	commitSent map[string]uint64
	leaderHint string

	// Chunked snapshot transfer state. Leader side: xfers holds, per peer
	// mid-transfer, the offset of the outstanding (unacked) chunk — the
	// heartbeat retransmits it, the ack advances it. Follower side: chunkBuf
	// stages received bytes for the (chunkIndex, chunkTerm, chunkTotal)
	// transfer; a crash clears it and the mismatch reply rewinds the leader.
	xfers      map[string]uint64
	chunkIndex uint64
	chunkTerm  uint64
	chunkTotal uint64
	chunkBuf   []byte
	chunksSent int64

	storage    Storage
	persistErr error

	applyCh  chan Committed
	stopCh   chan struct{}
	stopOnce sync.Once
	join     func() // waits for the event loop to return; nil before Start

	electionDeadline time.Time
	// jitterCtr numbers election-deadline resets; with the seed and node id
	// it indexes the deterministic jitter stream.
	jitterCtr uint64
}

// NewNode creates a node attached to the network; Start must be called to
// begin participating.
func NewNode(id string, peers []string, net *memnet.Network, cfg Config, seed int64) *Node {
	return NewNodeWithTransport(id, peers, net.Endpoint(id), cfg, seed)
}

// NewNodeWithTransport creates a node over an arbitrary transport (e.g.
// tcpnet); peers lists ALL member names including this node's.
func NewNodeWithTransport(id string, peers []string, tr Transport, cfg Config, seed int64) *Node {
	others := make([]string, 0, len(peers))
	for _, p := range peers {
		if p != id {
			others = append(others, p)
		}
	}
	cfg = cfg.withDefaults()
	return &Node{
		id: id, idHash: vclock.HashString(id), peers: others, cfg: cfg,
		ep: tr, clk: vclock.Or(cfg.Clock), seed: seed,
		role: Follower, votes: map[string]bool{},
		nextIndex: map[string]uint64{}, matchIndex: map[string]uint64{},
		commitSent: map[string]uint64{},
		xfers:      map[string]uint64{},
		applyCh:    make(chan Committed, 4096),
		stopCh:     make(chan struct{}),
	}
}

// UseStorage attaches persistent state and loads any previously persisted
// term, vote, snapshot and log tail. Must be called before Start. After a
// crash-restart, committed entries above the snapshot index are re-delivered
// on Apply; consumers rebuild or deduplicate by index. The commit index
// starts at the snapshot index — everything below it is covered by the
// snapshot and is never re-delivered.
func (n *Node) UseStorage(st Storage) error {
	term, voted, snap, log, err := st.Load()
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.storage = st
	n.term = term
	n.votedFor = voted
	n.snap = snap
	n.log = log
	n.commitIndex = snap.Index
	return nil
}

// Err returns the first persistence error, if any; the node stops accepting
// proposals and stops voting once persistence fails.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.persistErr
}

// persistLocked makes one write to storage, if the node has any, and
// reports whether everything persisted so far succeeded. On failure the
// node wedges itself: it must not communicate unpersisted promises.
func (n *Node) persistLocked(write func() error) bool {
	if n.storage != nil && n.persistErr == nil {
		n.persistErr = write()
	}
	return n.persistErr == nil
}

// persistStateLocked durably saves term/vote.
func (n *Node) persistStateLocked() bool {
	return n.persistLocked(func() error { return n.storage.SaveState(n.term, n.votedFor) })
}

func (n *Node) persistAppendLocked(first uint64, entries []Entry) bool {
	return n.persistLocked(func() error { return n.storage.Append(first, entries) })
}

func (n *Node) persistSnapshotLocked() bool {
	return n.persistLocked(func() error { return n.storage.SaveSnapshot(n.snap, n.log) })
}

// lastIndexLocked returns the logical index of the last entry (snapshot
// index if the tail is empty).
func (n *Node) lastIndexLocked() uint64 {
	return n.snap.Index + uint64(len(n.log))
}

// termAtLocked returns the term of the entry at logical index idx, or 0 if
// idx is 0, below the snapshot, or beyond the log.
func (n *Node) termAtLocked(idx uint64) uint64 {
	switch {
	case idx == n.snap.Index:
		return n.snap.Term
	case idx > n.snap.Index && idx <= n.lastIndexLocked():
		return n.log[idx-n.snap.Index-1].Term
	default:
		return 0
	}
}

// entryAtLocked returns the entry at logical index idx; idx must be in
// (snap.Index, lastIndex].
func (n *Node) entryAtLocked(idx uint64) Entry {
	return n.log[idx-n.snap.Index-1]
}

// Apply returns the channel of committed entries, delivered in log order.
func (n *Node) Apply() <-chan Committed { return n.applyCh }

// Start launches the node's event loop.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.resetElectionDeadlineLocked()
	n.join = vclock.Go(n.clk, "raft:"+n.id, n.run)
}

// Stop terminates the node (crash-stop); before Start it returns at once.
// Committed records still queued on the apply channel are discarded —
// exactly what a crash does.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.mu.Lock()
	join := n.join
	n.mu.Unlock()
	if join != nil {
		join()
	}
	for {
		select {
		case <-n.applyCh:
		default:
			return
		}
	}
}

// Status returns the node's current role and term.
func (n *Node) Status() (Role, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.term
}

// LeaderHint returns the most recently observed leader id.
func (n *Node) LeaderHint() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderHint
}

// CommitIndex returns the node's commit index.
func (n *Node) CommitIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitIndex
}

// SnapshotIndex returns the last log index covered by the node's snapshot
// (0 if the log has never been compacted).
func (n *Node) SnapshotIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.snap.Index
}

// Compact discards the log prefix up to and including index, recording data
// as the state-machine snapshot at that point. index must be committed;
// compacting at or below the current snapshot index is a no-op. The
// application calls this after it has durably captured its own state at
// index.
func (n *Node) Compact(index uint64, data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.persistErr != nil {
		return n.persistErr
	}
	if index <= n.snap.Index || index > n.commitIndex {
		return nil
	}
	term := n.termAtLocked(index)
	n.log = append([]Entry(nil), n.log[index-n.snap.Index:]...)
	n.snap = Snapshot{Index: index, Term: term, Data: data}
	if !n.persistSnapshotLocked() {
		return n.persistErr
	}
	return nil
}

// Propose appends cmd to the log if this node is the leader. It returns the
// assigned index and term, and whether the node accepted the proposal.
// Commitment is signalled later through Apply.
func (n *Node) Propose(cmd []byte) (uint64, uint64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != Leader || n.persistErr != nil {
		return 0, 0, false
	}
	n.log = append(n.log, Entry{Term: n.term, Cmd: cmd})
	idx := n.lastIndexLocked()
	if !n.persistAppendLocked(idx, n.log[len(n.log)-1:]) {
		n.log = n.log[:len(n.log)-1]
		return 0, 0, false
	}
	n.matchIndex[n.id] = idx
	n.broadcastAppendLocked()
	return idx, n.term, true
}

// run is the event loop: it takes one input per iteration in the fixed
// priority stop, inbox, tick, handles it, and yields, so on a simulated
// clock the seeded picker controls the interleaving.
func (n *Node) run() {
	tick := n.cfg.HeartbeatInterval / 2
	tm := n.clk.NewTimer(tick)
	defer tm.Stop()
	for {
		switch which, msg, _ := vclock.Recv(n.clk, n.stopCh, n.ep.Inbox(), tm.C()); which {
		case 0:
			return
		case 1:
			n.handle(msg)
		case 2:
			n.tick()
			tm.Reset(tick)
		}
		vclock.Yield(n.clk)
	}
}

func (n *Node) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.role {
	case Leader:
		n.broadcastAppendLocked()
	default:
		if n.clk.Now().After(n.electionDeadline) {
			n.startElectionLocked()
		}
	}
}

// resetElectionDeadlineLocked arms a fresh randomized election timeout. The
// jitter is a hash of (seed, node id, reset ordinal) — a per-node stream
// independent of goroutine scheduling, so elections replay identically for a
// fixed seed on the simulated clock. Nanosecond resolution makes cross-node
// deadline ties (which the simulation would break arbitrarily) measure-zero.
func (n *Node) resetElectionDeadlineLocked() {
	span := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	n.jitterCtr++
	jitter := vclock.Hash64(uint64(n.seed), n.idHash, n.jitterCtr) % uint64(span+1)
	n.electionDeadline = n.clk.Now().Add(n.cfg.ElectionTimeoutMin + time.Duration(jitter))
}

func (n *Node) lastLogLocked() (uint64, uint64) {
	last := n.lastIndexLocked()
	return last, n.termAtLocked(last)
}

func (n *Node) startElectionLocked() {
	if n.persistErr != nil {
		return
	}
	n.role = Candidate
	n.term++
	n.votedFor = n.id
	n.votes = map[string]bool{n.id: true}
	if !n.persistStateLocked() {
		return
	}
	n.resetElectionDeadlineLocked()
	lastIdx, lastTerm := n.lastLogLocked()
	req := RequestVote{Term: n.term, Candidate: n.id, LastLogIndex: lastIdx, LastLogTerm: lastTerm}
	for _, p := range n.peers {
		n.send(p, req)
	}
	if n.hasMajorityLocked() { // single-node cluster
		n.becomeLeaderLocked()
	}
}

func (n *Node) hasMajorityLocked() bool {
	return len(n.votes)*2 > len(n.peers)+1
}

func (n *Node) becomeLeaderLocked() {
	n.role = Leader
	n.leaderHint = n.id
	n.xfers = map[string]uint64{} // any prior leadership's transfers are void
	lastIdx, _ := n.lastLogLocked()
	for _, p := range n.peers {
		n.nextIndex[p] = lastIdx + 1
		n.matchIndex[p] = 0
		n.commitSent[p] = 0
	}
	n.matchIndex[n.id] = lastIdx
	n.broadcastAppendLocked()
}

func (n *Node) stepDownLocked(term uint64) {
	n.term = term
	n.role = Follower
	n.votedFor = ""
	n.votes = map[string]bool{}
	n.persistStateLocked()
	n.resetElectionDeadlineLocked()
}

func (n *Node) broadcastAppendLocked() {
	for _, p := range n.peers {
		n.sendAppendLocked(p)
	}
	n.advanceCommitLocked()
}

func (n *Node) sendAppendLocked(peer string) {
	next := n.nextIndex[peer]
	if next == 0 {
		next = 1
	}
	if next <= n.snap.Index {
		// The entries the follower needs were compacted away: ship the
		// snapshot instead, in chunks from the per-peer cursor, and resume
		// appends from its index (a heartbeat lands here again and
		// retransmits the outstanding chunk if its ack was lost).
		off := n.xfers[peer]
		if off >= uint64(len(n.snap.Data)) {
			// Cursor from a transfer of an older snapshot: restart.
			off = 0
		}
		n.sendChunkLocked(peer, off)
		return
	}
	prevIdx := next - 1
	prevTerm := n.termAtLocked(prevIdx)
	var entries []Entry
	if next <= n.lastIndexLocked() {
		entries = append(entries, n.log[next-n.snap.Index-1:]...)
	}
	// The suffix always reaches the leader's last index, which the commit
	// index never exceeds.
	n.commitSent[peer] = n.commitIndex
	n.send(peer, AppendEntries{
		Term: n.term, Leader: n.id,
		PrevLogIndex: prevIdx, PrevLogTerm: prevTerm,
		Entries: entries, LeaderCommit: n.commitIndex,
	})
}

// notifyCommitLocked tells peer at once about a commit index it can act on
// and has not been sent: one AppendEntries with no entries, anchored at the
// peer's acknowledged match index, which the follower's commit rule (bounded
// by that anchor) turns into min(commitIndex, match). A peer whose entries
// are still unacknowledged has match below the new commit index and is sent
// nothing — no second copy of what is in flight — until its ack raises match,
// which lands here again. A lost notice is healed by the heartbeat.
func (n *Node) notifyCommitLocked(peer string) {
	match := n.matchIndex[peer]
	commit := min(n.commitIndex, match)
	if commit <= n.commitSent[peer] || match < n.snap.Index {
		// Nothing new, or the anchor's term went with the compacted prefix
		// (the peer is being caught up by a snapshot transfer).
		return
	}
	n.commitSent[peer] = commit
	n.send(peer, AppendEntries{
		Term: n.term, Leader: n.id,
		PrevLogIndex: match, PrevLogTerm: n.termAtLocked(match),
		LeaderCommit: n.commitIndex,
	})
}

// send encodes rpc into a buffer of its own and hands it to the transport.
func (n *Node) send(to string, rpc message) {
	n.ep.Send(to, rpc.appendTo(nil))
}

func (n *Node) handle(msg memnet.Message) {
	rpc, err := decodeMessage(msg.Payload)
	if err != nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	switch rpc := rpc.(type) {
	case RequestVote:
		n.onRequestVote(msg.From, rpc)
	case VoteReply:
		n.onVoteReply(msg.From, rpc)
	case AppendEntries:
		n.onAppendEntries(msg.From, rpc)
	case AppendReply:
		n.onAppendReply(msg.From, rpc)
	case InstallSnapshotChunk:
		n.onInstallSnapshotChunk(msg.From, rpc)
	case InstallSnapshotChunkReply:
		n.onInstallSnapshotChunkReply(msg.From, rpc)
	}
}

func (n *Node) onRequestVote(from string, rpc RequestVote) {
	if rpc.Term > n.term {
		n.stepDownLocked(rpc.Term)
	}
	granted := false
	if rpc.Term == n.term && (n.votedFor == "" || n.votedFor == rpc.Candidate) {
		// Election restriction: candidate's log must be at least as
		// up-to-date as ours.
		lastIdx, lastTerm := n.lastLogLocked()
		if rpc.LastLogTerm > lastTerm ||
			(rpc.LastLogTerm == lastTerm && rpc.LastLogIndex >= lastIdx) {
			granted = true
			n.votedFor = rpc.Candidate
			if !n.persistStateLocked() {
				granted = false
			}
			n.resetElectionDeadlineLocked()
		}
	}
	n.send(from, VoteReply{Term: n.term, Granted: granted})
}

func (n *Node) onVoteReply(from string, rpc VoteReply) {
	if rpc.Term > n.term {
		n.stepDownLocked(rpc.Term)
		return
	}
	if n.role != Candidate || rpc.Term != n.term || !rpc.Granted {
		return
	}
	n.votes[from] = true
	if n.hasMajorityLocked() {
		n.becomeLeaderLocked()
	}
}

func (n *Node) onAppendEntries(from string, rpc AppendEntries) {
	if rpc.Term > n.term {
		n.stepDownLocked(rpc.Term)
	}
	if rpc.Term < n.term {
		n.send(from, AppendReply{Term: n.term})
		return
	}
	// Valid leader for the current term.
	n.role = Follower
	n.leaderHint = rpc.Leader
	n.resetElectionDeadlineLocked()
	// Entries at or below our snapshot index are already covered by the
	// snapshot: skip them and treat the snapshot boundary as the match
	// point for the log-matching check.
	if rpc.PrevLogIndex < n.snap.Index {
		skip := n.snap.Index - rpc.PrevLogIndex
		if uint64(len(rpc.Entries)) <= skip {
			n.send(from, AppendReply{Term: n.term, Success: true, MatchIndex: n.snap.Index})
			return
		}
		rpc.Entries = rpc.Entries[skip:]
		rpc.PrevLogIndex = n.snap.Index
		rpc.PrevLogTerm = n.snap.Term
	}
	// Log matching check.
	if rpc.PrevLogIndex > n.lastIndexLocked() {
		n.send(from, AppendReply{Term: n.term, ConflictIndex: n.lastIndexLocked() + 1})
		return
	}
	if rpc.PrevLogIndex > n.snap.Index && n.termAtLocked(rpc.PrevLogIndex) != rpc.PrevLogTerm {
		// Back up to the start of the conflicting term (never below the
		// snapshot boundary).
		ci := rpc.PrevLogIndex
		badTerm := n.termAtLocked(rpc.PrevLogIndex)
		for ci > n.snap.Index+1 && n.termAtLocked(ci-1) == badTerm {
			ci--
		}
		n.send(from, AppendReply{Term: n.term, ConflictIndex: ci})
		return
	}
	// Append / overwrite; persist from the first changed index.
	firstChanged := uint64(0)
	for i, e := range rpc.Entries {
		idx := rpc.PrevLogIndex + uint64(i) + 1
		if idx <= n.lastIndexLocked() {
			if n.entryAtLocked(idx).Term != e.Term {
				n.log = n.log[:idx-n.snap.Index-1]
				n.log = append(n.log, e)
				if firstChanged == 0 {
					firstChanged = idx
				}
			}
		} else {
			n.log = append(n.log, e)
			if firstChanged == 0 {
				firstChanged = idx
			}
		}
	}
	if firstChanged > 0 {
		if !n.persistAppendLocked(firstChanged, n.log[firstChanged-n.snap.Index-1:]) {
			n.send(from, AppendReply{Term: n.term, ConflictIndex: firstChanged})
			return
		}
	}
	// Commit up to the last entry this message vouches for, not the end of
	// the log: a suffix beyond match may be a stale one from an older term
	// that a message without entries (a commit notice) does not overwrite.
	match := rpc.PrevLogIndex + uint64(len(rpc.Entries))
	if lim := min(rpc.LeaderCommit, match); lim > n.commitIndex {
		n.commitToLocked(lim)
	}
	n.send(from, AppendReply{Term: n.term, Success: true, MatchIndex: match})
}

// applySnapshotLocked installs a fully received snapshot: retains any
// matching log suffix, persists, delivers to the application in commit
// order, and advances the commit index.
func (n *Node) applySnapshotLocked(index, snapTerm uint64, data []byte) bool {
	if n.termAtLocked(index) == snapTerm && index <= n.lastIndexLocked() {
		// Existing entry matches the snapshot's last entry: retain the
		// suffix (Raft §7).
		n.log = append([]Entry(nil), n.log[index-n.snap.Index:]...)
	} else {
		n.log = nil
	}
	n.snap = Snapshot{Index: index, Term: snapTerm, Data: data}
	if !n.persistSnapshotLocked() {
		return false
	}
	// Deliver the snapshot to the application in commit order, then mark
	// everything it covers committed.
	if !n.deliverLocked(Committed{Index: index, Term: snapTerm, Snapshot: data}) {
		return false
	}
	n.commitIndex = index
	return true
}

// deliverLocked places one committed record on the apply channel. Returns
// false if the node stopped before delivery.
func (n *Node) deliverLocked(c Committed) bool {
	select {
	case n.applyCh <- c:
		// On a simulated clock the consumer is a polled actor (replica
		// apply loop); publish so it re-polls without waiting for unrelated
		// traffic or the next timer fire.
		vclock.Publish(n.clk)
		return true
	case <-n.stopCh:
		return false
	}
}

// sendChunkLocked transmits the chunk starting at off and records it as the
// peer's outstanding chunk (the cursor the heartbeat retransmits from).
func (n *Node) sendChunkLocked(peer string, off uint64) {
	total := uint64(len(n.snap.Data))
	end := off + uint64(n.cfg.SnapshotChunkSize)
	if end > total {
		end = total
	}
	n.xfers[peer] = off
	n.chunksSent++
	n.send(peer, InstallSnapshotChunk{
		Term: n.term, Leader: n.id,
		Index: n.snap.Index, SnapTerm: n.snap.Term,
		Offset: off, Total: total, Data: n.snap.Data[off:end],
	})
}

// ChunksSent returns how many snapshot chunks this node has transmitted as
// leader (observability for tests asserting the chunked path actually ran).
func (n *Node) ChunksSent() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.chunksSent
}

func (n *Node) onInstallSnapshotChunk(from string, rpc InstallSnapshotChunk) {
	if rpc.Term > n.term {
		n.stepDownLocked(rpc.Term)
	}
	if rpc.Term < n.term {
		n.send(from, InstallSnapshotChunkReply{Term: n.term, Index: rpc.Index})
		return
	}
	n.role = Follower
	n.leaderHint = rpc.Leader
	n.resetElectionDeadlineLocked()
	if rpc.Index <= n.commitIndex {
		// Stale transfer: everything the snapshot covers is already
		// committed here. Report it complete so the leader moves to appends.
		n.send(from, InstallSnapshotChunkReply{
			Term: n.term, Index: rpc.Index, NextOffset: rpc.Total, Done: true,
		})
		return
	}
	if n.chunkIndex != rpc.Index || n.chunkTerm != rpc.SnapTerm || n.chunkTotal != rpc.Total {
		// First chunk of a new transfer (or the leader moved to a newer
		// snapshot mid-stream): drop any stale staging and start over. A
		// freshly restarted follower lands here too — its empty buffer makes
		// the reply below rewind the leader to offset 0.
		n.chunkIndex, n.chunkTerm, n.chunkTotal = rpc.Index, rpc.SnapTerm, rpc.Total
		n.chunkBuf = n.chunkBuf[:0]
	}
	if have := uint64(len(n.chunkBuf)); rpc.Offset == have && have < rpc.Total {
		n.chunkBuf = append(n.chunkBuf, rpc.Data...)
	}
	// Any other offset is a duplicate or a gap: the reply's NextOffset
	// (the staging cursor) tells the leader where to resume.
	if have := uint64(len(n.chunkBuf)); have < rpc.Total {
		n.send(from, InstallSnapshotChunkReply{Term: n.term, Index: rpc.Index, NextOffset: have})
		return
	}
	// Non-nil even when empty: Committed.Snapshot != nil is what marks the
	// record as a snapshot.
	data := append([]byte{}, n.chunkBuf...)
	n.chunkBuf, n.chunkIndex, n.chunkTerm, n.chunkTotal = nil, 0, 0, 0
	if !n.applySnapshotLocked(rpc.Index, rpc.SnapTerm, data) {
		return
	}
	n.send(from, InstallSnapshotChunkReply{
		Term: n.term, Index: rpc.Index, NextOffset: rpc.Total, Done: true,
	})
}

func (n *Node) onInstallSnapshotChunkReply(from string, rpc InstallSnapshotChunkReply) {
	if rpc.Term > n.term {
		n.stepDownLocked(rpc.Term)
		return
	}
	if n.role != Leader || rpc.Term != n.term {
		return
	}
	if rpc.Done {
		delete(n.xfers, from)
		if rpc.Index > n.matchIndex[from] {
			n.matchIndex[from] = rpc.Index
		}
		n.nextIndex[from] = n.matchIndex[from] + 1
		n.advanceCommitLocked()
		// Continue catch-up with regular appends above the snapshot.
		n.sendAppendLocked(from)
		return
	}
	if rpc.Index != n.snap.Index {
		// Ack for a transfer of an older snapshot: restart against the
		// current one.
		delete(n.xfers, from)
		n.sendAppendLocked(from)
		return
	}
	n.sendChunkLocked(from, rpc.NextOffset)
}

func (n *Node) onAppendReply(from string, rpc AppendReply) {
	if rpc.Term > n.term {
		n.stepDownLocked(rpc.Term)
		return
	}
	if n.role != Leader || rpc.Term != n.term {
		return
	}
	if rpc.Success {
		if rpc.MatchIndex > n.matchIndex[from] {
			n.matchIndex[from] = rpc.MatchIndex
		}
		n.nextIndex[from] = n.matchIndex[from] + 1
		n.advanceCommitLocked()
		n.notifyCommitLocked(from)
		return
	}
	// Follower rejected: back up and retry.
	n.nextIndex[from] = max(rpc.ConflictIndex, 1)
	n.sendAppendLocked(from)
}

// advanceCommitLocked commits the highest index replicated on a majority
// whose entry is from the current term (Raft's commitment rule).
func (n *Node) advanceCommitLocked() {
	if n.role != Leader {
		return
	}
	// This runs on every proposal, append reply and tick: the match indexes
	// of a cluster of up to len(buf) nodes are sorted on the stack.
	var buf [8]uint64
	matches := append(buf[:0], n.lastIndexLocked())
	for _, p := range n.peers {
		matches = append(matches, n.matchIndex[p])
	}
	slices.Sort(matches)
	// The highest index a majority has reached: len/2 nodes are above it.
	majority := matches[len(matches)-1-len(matches)/2]
	if majority > n.commitIndex && majority <= n.lastIndexLocked() &&
		n.termAtLocked(majority) == n.term {
		n.commitToLocked(majority)
		for _, p := range n.peers {
			n.notifyCommitLocked(p)
		}
	}
}

func (n *Node) commitToLocked(idx uint64) {
	for i := n.commitIndex + 1; i <= idx; i++ {
		e := n.entryAtLocked(i)
		if !n.deliverLocked(Committed{Index: i, Term: e.Term, Cmd: e.Cmd}) {
			return
		}
		n.commitIndex = i
	}
}
