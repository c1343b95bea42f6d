package replica

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prognosticator/internal/engine"
	"prognosticator/internal/flowctl"
	"prognosticator/internal/memnet"
	"prognosticator/internal/raft"
	"prognosticator/internal/store"
	"prognosticator/internal/tcpnet"
	"prognosticator/internal/vclock"
	"prognosticator/internal/wal"
)

// Cluster is an in-process deployment: N Raft nodes with one replica each.
// It is the top-level object the examples, tests, cmd/replicad and the
// chaos harness drive. Consensus traffic flows over simulated channels
// (memnet, the default) or real loopback TCP sockets (tcpnet), through one
// fault filter, Net, on either. With DataDir set, every node keeps one
// durable journal (its Raft storage, which also holds its replica's
// snapshots and applied-index hints), enabling per-replica Crash and
// Restart. NodeAt and ReplicaAt return a member's current node and replica;
// Restart replaces both.
type Cluster struct {
	// Net is the network every consensus message passes on either
	// transport: its loss, delay, partitions and down nodes are the
	// cluster's network faults, and its Stats count the traffic.
	Net *memnet.Network

	cfg     ClusterConfig
	clk     vclock.Clock
	ids     []string
	dataDir string
	session string            // boot nonce: the session every batch of this cluster belongs to
	tcpDir  *tcpnet.Directory // TCP only

	flow *flowctl.Controller

	// progress is notified whenever something SubmitBatch or WaitCaughtUp
	// waits for may have changed: a replica's apply loop dealt with a
	// committed record, a replica crashed (the live set shrank) or rejoined
	// (with its recovered dedup table), an apply error was recorded, the
	// cluster stopped. Replicas come and go with Crash/Restart; the signal
	// stays.
	progress *vclock.Signal
	stopped  atomic.Bool

	mu          sync.Mutex
	nodes       []*raft.Node
	replicas    []*Replica
	endpoints   []*tcpnet.Endpoint // nil entries over memnet
	down        []bool
	generations []int
	recoveries  []RecoveryReport
	applyDelays []time.Duration     // reapplied on Restart (slow-apply fault)
	batchSeq    uint64              // the session's last Seq
	running     map[uint64]struct{} // the Seqs whose SubmitBatch has not returned

	errMu sync.Mutex
	err   error
}

// ClusterConfig configures NewCluster.
type ClusterConfig struct {
	Replicas int
	Seed     int64
	// NewExecutor builds each replica's executor over its private store. It
	// is called again on Restart: the factory must produce the same initial
	// state (e.g. the same Populate) so journal replay rebuilds on top of it.
	NewExecutor func(replicaID string, st *store.Store) (engine.Executor, error)
	// Raft overrides the consensus timing (zero = defaults).
	Raft raft.Config
	// TCP routes consensus over real loopback sockets instead of the
	// in-process simulated network. Crash closes the node's endpoint;
	// Restart re-listens on a fresh port and the directory re-routes peers.
	TCP bool
	// SnapshotEvery, with DataDir set, makes each replica capture a store
	// snapshot every N applied entries and hand it to raft, which checkpoints
	// it in the journal and compacts the journal below it (0 disables
	// snapshotting).
	SnapshotEvery uint64
	// DataDir enables durability: node i keeps its journal (Raft state,
	// entries, snapshots and applied-index hints) under DataDir/<id>/raft.
	// A wal directory left there by a version that kept a second log per
	// replica is ignored, as is a snap directory left by one that also wrote
	// snapshot files. Required for Crash/Restart (a node restarting without
	// persisted term/vote could double-vote).
	DataDir string
	// WALSync is read by nothing. It selected the fsync policy of a
	// per-replica log that no longer exists; the journal always fsyncs what
	// Raft persists, and never the applied hints.
	WALSync wal.SyncPolicy
	// QuorumSubmit makes SubmitBatch report success once a majority of
	// replicas applied the batch (the committed entry is durable; laggards
	// catch up through Raft). Default false waits for every live replica —
	// the right semantics when callers compare all state hashes immediately
	// after submit.
	QuorumSubmit bool
	// Flow is the admission/retry policy enforced on the submit path: the
	// inflight cap, the submit rate, the retry budget and the breaker
	// threshold. The zero value disables every limit. Flow.Seed defaults to
	// Seed and Flow.Clock to Clock, so a seeded cluster has fully
	// deterministic backoff jitter.
	Flow flowctl.Config
	// SubmitWindow bounds how long one proposal is waited on before the
	// batch is re-proposed (idempotently) through the then-current leader
	// (default 2s). A proposal can be lost without any error signal when its
	// leader crashes after accepting it but before replicating it; chaos and
	// slow-apply scenarios tune this down to re-route faster.
	SubmitWindow time.Duration
	// Clock is the time source threaded through every layer: raft timers,
	// flow control, memnet delays, apply throttles, and all submit-path
	// deadlines. Nil uses the wall clock. A vclock.Sim clock runs the whole
	// cluster in virtual time, making a run a pure function of (Seed, config);
	// the cluster must then be built and driven from inside that clock's
	// Sim.Run. Not supported with TCP (real sockets need real time).
	Clock vclock.Clock
	// OnApply, when non-nil, observes every non-duplicate batch application
	// on every replica (the history recorder's tap): replica ID, raft index,
	// batch name ("<session>-<seq>", empty for a batch without a session),
	// the ordered requests and their outcomes.
	OnApply func(replicaID string, index uint64, batchID string, reqs []engine.Request, res *engine.BatchResult)
}

// NewCluster assembles and starts an in-process cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.NewExecutor == nil {
		return nil, fmt.Errorf("replica: cluster needs a NewExecutor factory")
	}
	if cfg.SubmitWindow == 0 {
		cfg.SubmitWindow = defaultSubmitWindow
	}
	if cfg.Flow.Seed == 0 {
		cfg.Flow.Seed = cfg.Seed
	}
	if cfg.TCP && vclock.IsSim(cfg.Clock) {
		return nil, fmt.Errorf("replica: simulated clock is not supported over TCP (real sockets need real time)")
	}
	clk := vclock.Or(cfg.Clock)
	if cfg.Flow.Clock == nil {
		cfg.Flow.Clock = clk
	}
	if cfg.Raft.Clock == nil {
		cfg.Raft.Clock = clk
	}
	c := &Cluster{
		cfg:     cfg,
		clk:     clk,
		dataDir: cfg.DataDir,
		// The boot nonce comes from the injected clock: under simulation the
		// virtual epoch is fixed, so batch sessions — and everything derived
		// from them — are identical across same-seed runs.
		session:  fmt.Sprintf("%x", clk.Now().UnixNano()),
		flow:     flowctl.NewController(cfg.Flow),
		progress: vclock.NewSignal(clk),
		running:  map[uint64]struct{}{},
	}
	n := cfg.Replicas
	c.ids = make([]string, n)
	for i := range c.ids {
		c.ids[i] = fmt.Sprintf("replica-%d", i)
	}
	c.nodes = make([]*raft.Node, n)
	c.replicas = make([]*Replica, n)
	c.down = make([]bool, n)
	c.generations = make([]int, n)
	c.recoveries = make([]RecoveryReport, n)
	c.applyDelays = make([]time.Duration, n)
	c.endpoints = make([]*tcpnet.Endpoint, n)
	c.Net = memnet.NewWithClock(cfg.Seed, clk)
	if cfg.TCP {
		c.tcpDir = tcpnet.NewDirectoryOn(c.Net)
	}
	for i := range c.ids {
		if err := c.startNode(i); err != nil {
			// Close the files and endpoints the nodes built so far hold.
			c.Stop()
			return nil, err
		}
	}
	for i := range c.ids {
		c.launch(i)
	}
	return c, nil
}

// startNode builds (or rebuilds, on restart) node i: a fresh store
// recovered from the node's journal, transport endpoint, and a
// raft node over the same journal. It does not start the event loops.
// Callers hold no cluster lock; the built components are installed under
// c.mu.
func (c *Cluster) startNode(i int) error {
	id := c.ids[i]
	c.mu.Lock()
	gen := c.generations[i]
	c.mu.Unlock()
	st := store.New()
	exec, err := c.cfg.NewExecutor(id, st)
	if err != nil {
		return fmt.Errorf("replica: cluster executor for %s: %w", id, err)
	}
	rep := New(id, exec, st)
	var recovered RecoveryReport
	if c.dataDir != "" {
		if recovered, err = rep.recover(c.WALDir(i)); err != nil {
			return fmt.Errorf("replica: cluster recovery for %s: %w", id, err)
		}
	}
	seed := c.cfg.Seed + int64(i)*7919 + int64(gen)*104729
	var node *raft.Node
	var ep *tcpnet.Endpoint
	if c.cfg.TCP {
		if ep, err = tcpnet.Listen(id, "127.0.0.1:0", c.tcpDir); err != nil {
			return fmt.Errorf("replica: cluster transport for %s: %w", id, err)
		}
		node = raft.NewNodeWithTransport(id, c.ids, ep, c.cfg.Raft, seed)
	} else {
		node = raft.NewNode(id, c.ids, c.Net, c.cfg.Raft, seed)
	}
	if c.dataDir != "" {
		stg, err := raft.OpenFileStorage(c.WALDir(i))
		if err == nil {
			if err = node.UseStorage(stg); err != nil {
				_ = stg.Close()
			}
		}
		if err != nil {
			if ep != nil {
				ep.Close()
			}
			return fmt.Errorf("replica: cluster raft storage for %s: %w", id, err)
		}
		rep.journal = stg
	}
	rep.clk = c.clk
	rep.applied = c.progress
	if onApply := c.cfg.OnApply; onApply != nil {
		rep.onApply = func(index uint64, batchID string, reqs []engine.Request, res *engine.BatchResult) {
			onApply(id, index, batchID, reqs, res)
		}
	}
	if c.cfg.SnapshotEvery > 0 && c.dataDir != "" {
		rep.snapEvery, rep.compact = c.cfg.SnapshotEvery, node.Compact
	}
	c.mu.Lock()
	c.nodes[i] = node
	c.replicas[i] = rep
	c.recoveries[i] = recovered
	// A restarted node rejoins with its standing slow-apply throttle; the
	// network faults stay in Net across restarts.
	rep.SetApplyDelay(c.applyDelays[i])
	c.endpoints[i] = ep
	c.mu.Unlock()
	return nil
}

// launch starts node i's event loops.
func (c *Cluster) launch(i int) {
	node, rep := c.node(i), c.replica(i)
	node.Start()
	rep.Start(node.Apply(), c.recordErr)
}

// --- locked accessors (safe against concurrent Restart) ---

func (c *Cluster) node(i int) *raft.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

func (c *Cluster) replica(i int) *Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicas[i]
}

// NodeAt returns node i (safe against concurrent Restart).
func (c *Cluster) NodeAt(i int) *raft.Node { return c.node(i) }

// ReplicaAt returns replica i (safe against concurrent Restart).
func (c *Cluster) ReplicaAt(i int) *Replica { return c.replica(i) }

// IDs returns the member names, index-aligned with the replica slices.
func (c *Cluster) IDs() []string {
	out := make([]string, len(c.ids))
	copy(out, c.ids)
	return out
}

// Size returns the cluster membership size.
func (c *Cluster) Size() int { return len(c.ids) }

// WALDir returns node i's journal directory, its raft storage, which holds
// the batches and applied-index hints recovery reads ("" without
// persistence). The name is older than the one journal.
func (c *Cluster) WALDir(i int) string {
	if c.dataDir == "" {
		return ""
	}
	return filepath.Join(c.dataDir, c.ids[i], "raft")
}

// SnapDir returns where replica i's snapshot files were kept ("" without
// persistence). No replica reads or writes there: the journal's checkpoint
// is a snapshot's one durable copy. It stays for the benchmark.
func (c *Cluster) SnapDir(i int) string {
	if c.dataDir == "" {
		return ""
	}
	return filepath.Join(c.dataDir, c.ids[i], "snap")
}

// LastRecovery returns the recovery report from replica i's most recent
// (re)start — the initial boot, or the latest Restart.
func (c *Cluster) LastRecovery(i int) RecoveryReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recoveries[i]
}

// IsDown reports whether replica i is currently crashed.
func (c *Cluster) IsDown(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[i]
}

// DownReplicas returns the indices of currently crashed replicas.
func (c *Cluster) DownReplicas() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i, d := range c.down {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// Crash stops replica i like a process kill: its apply loop and Raft node
// halt, its network presence disappears (it is down in Net, and over TCP its
// endpoint closes), and its journal is closed. State survives on
// disk; the node rejoins via Restart. Requires persistence (DataDir).
func (c *Cluster) Crash(i int) error {
	if c.dataDir == "" {
		return fmt.Errorf("replica: crash requires DataDir persistence (a node without persisted term/vote could double-vote on rejoin)")
	}
	c.mu.Lock()
	if c.down[i] {
		c.mu.Unlock()
		return fmt.Errorf("replica: %s is already down", c.ids[i])
	}
	c.down[i] = true
	node, rep, ep := c.nodes[i], c.replicas[i], c.endpoints[i]
	c.mu.Unlock()
	// Cut network traffic first (the node is gone from the fabric), then
	// stop the loops, then close the files they were writing. Over TCP the
	// endpoint close kills the listener and every open connection; peers'
	// sends fail and drop, exactly like datagrams to a dead host.
	c.Net.SetDown(c.ids[i], true)
	if ep != nil {
		ep.Close()
	}
	rep.Stop()
	node.Stop()
	_ = rep.journal.Close()
	c.progress.Notify()
	return nil
}

// Restart rejoins a crashed replica: a fresh store is rebuilt from its
// journal's snapshot plus the entries above it, the Raft node reloads its
// persisted term/vote/snapshot/log from the same (repaired) journal, and re-delivery from the
// live leader catches the replica up to the commit index. The executor is
// rebuilt through the NewExecutor factory. Over TCP the node re-listens on a
// fresh port; the shared directory re-routes peers on their next dial.
func (c *Cluster) Restart(i int) error {
	c.mu.Lock()
	if !c.down[i] {
		c.mu.Unlock()
		return fmt.Errorf("replica: %s is not down", c.ids[i])
	}
	c.generations[i]++
	c.mu.Unlock()
	// A fresh process would not see datagrams addressed to its previous
	// life: drain them before rejoining the fabric.
	c.Net.Drain(c.ids[i])
	c.Net.SetDown(c.ids[i], false)
	if err := c.startNode(i); err != nil {
		c.Net.SetDown(c.ids[i], true)
		return err
	}
	c.launch(i)
	c.mu.Lock()
	c.down[i] = false
	c.mu.Unlock()
	// The rejoined replica counts as having applied whatever its recovered
	// dedup table holds, which can complete a quorum no apply will announce.
	c.progress.Notify()
	return nil
}

func (c *Cluster) recordErr(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.progress.Notify()
}

// Err returns the first replica apply error, if any.
func (c *Cluster) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// errStopped fails a wait the cluster was stopped under.
var errStopped = errors.New("replica: cluster stopped")

// waitErr returns what ends a wait on progress early: the first apply
// error, or the cluster having been stopped.
func (c *Cluster) waitErr() error {
	if err := c.Err(); err != nil {
		return err
	}
	if c.stopped.Load() {
		return errStopped
	}
	return nil
}

// Stop shuts the cluster down. A SubmitBatch or WaitCaughtUp still waiting
// returns an error instead of sitting out its deadline. NewCluster also
// calls it to release a partly built cluster, whose loops never started and
// whose later members are nil.
func (c *Cluster) Stop() {
	c.stopped.Store(true)
	c.progress.Notify()
	c.mu.Lock()
	reps, nodes, eps := slices.Clone(c.replicas), slices.Clone(c.nodes), slices.Clone(c.endpoints)
	c.mu.Unlock()
	for _, r := range reps {
		if r != nil {
			r.Stop()
		}
	}
	for _, n := range nodes {
		if n != nil {
			n.Stop()
		}
	}
	for _, r := range reps {
		if r != nil && r.journal != nil {
			_ = r.journal.Close()
		}
	}
	c.Net.Close()
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
}

// Flow returns the cluster's flow-control controller (admission counters,
// inflight high water).
func (c *Cluster) Flow() *flowctl.Controller { return c.flow }

// Clock returns the cluster's time source — the injected simulated clock in
// deterministic tests, wall time otherwise. Chaos injectors use it to place
// scheduler yield points at fault anchors.
func (c *Cluster) Clock() vclock.Clock { return c.clk }

// SetApplyDelay throttles replica i's apply loop (the chaos slow-apply
// fault; 0 restores full speed). The throttle survives Crash/Restart.
func (c *Cluster) SetApplyDelay(i int, d time.Duration) {
	c.mu.Lock()
	c.applyDelays[i] = d
	rep := c.replicas[i]
	c.mu.Unlock()
	rep.SetApplyDelay(d)
}

// WaitLeader blocks until some live node is leader, returning its index.
// When several nodes claim leadership (a stale leader isolated in a minority
// partition never learns it was deposed), the claimant with the highest term
// wins — only it can commit.
func (c *Cluster) WaitLeader(within time.Duration) (int, error) {
	return c.waitLeader(flowctl.AfterClock(c.clk, within))
}

func (c *Cluster) waitLeader(dl flowctl.Deadline) (int, error) {
	var bo *flowctl.Backoff // built at the first wait: there usually is a leader
	for {
		best, bestTerm := -1, uint64(0)
		for i := range c.ids {
			if c.IsDown(i) {
				continue
			}
			if role, term := c.node(i).Status(); role == raft.Leader && term > bestTerm {
				best, bestTerm = i, term
			}
		}
		if best >= 0 {
			return best, nil
		}
		if bo == nil {
			bo = c.flow.NewBackoff()
		}
		if err := bo.Sleep(dl); err != nil {
			return -1, fmt.Errorf("replica: no leader: %w", err)
		}
	}
}

// WaitCaughtUp blocks until every live replica has applied at least the
// leader's current commit index (and a leader exists). After a Restart and a
// Heal, this is the quiesce point where all state hashes must agree. The
// applies it waits for announce themselves on progress; a change of leader
// does not, so no single wait outlasts SubmitWindow — the same bound after
// which a submitter stops trusting the leader it proposed through.
func (c *Cluster) WaitCaughtUp(within time.Duration) error {
	dl := flowctl.AfterClock(c.clk, within)
	for {
		woken := c.progress.Arm()
		if err := c.waitErr(); err != nil {
			return err
		}
		li, err := c.waitLeader(dl)
		if err != nil {
			return err
		}
		target := c.node(li).CommitIndex()
		done := true
		for i := range c.ids {
			if c.IsDown(i) {
				continue
			}
			if c.replica(i).LastApplied() < target {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		rem := dl.Bound(c.cfg.SubmitWindow).Remaining()
		if rem <= 0 {
			return fmt.Errorf("replica: not caught up to index %d within %v: %w",
				target, within, flowctl.ErrDeadlineExceeded)
		}
		c.progress.Wait(woken, rem)
	}
}

// StateHashes returns every replica's state hash (crashed replicas report
// their state as of the crash).
func (c *Cluster) StateHashes() []uint64 {
	out := make([]uint64, len(c.ids))
	for i := range c.ids {
		out[i] = c.replica(i).StateHash()
	}
	return out
}

// Converged reports whether all replicas currently hash identically.
func (c *Cluster) Converged() bool {
	hs := c.StateHashes()
	for _, h := range hs[1:] {
		if h != hs[0] {
			return false
		}
	}
	return true
}
