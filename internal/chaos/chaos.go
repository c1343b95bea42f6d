// Package chaos is a seeded, deterministic fault scheduler for the
// in-process replicated deployment (internal/replica). It kills and restarts
// replicas mid-batch, tears journal tails before a rejoin, partitions the
// network around the current leader, and injects message loss and delay —
// all from a plan derived from one seed, so a failing soak run replays with
// the same fault schedule. The invariant it exists to attack: after every
// fault is lifted (Quiesce), all replicas converge to identical state hashes
// with every submitted batch applied exactly once.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"prognosticator/internal/metrics"
	"prognosticator/internal/replica"
	"prognosticator/internal/vclock"
)

// Fault is one schedulable fault kind.
type Fault int

const (
	// KillLeader crashes the current leader (process kill: apply loop and
	// raft node stop, files close; state survives on disk).
	KillLeader Fault = iota
	// KillRandom crashes a random live replica.
	KillRandom
	// RestartClean restarts one crashed replica: journal replay, then Raft
	// catch-up.
	RestartClean
	// RestartCorrupt leaves a damaged frame after the last record of the
	// crashed replica's journal (torn write or bit flip, alternating by rng),
	// as a crash mid-append does, before restarting it, forcing the
	// truncate-on-open recovery path. If nothing is down it first crashes a
	// random replica.
	RestartCorrupt
	// PartitionLeader isolates the current leader in a minority partition;
	// the majority side must elect a successor and keep committing.
	PartitionLeader
	// HealPartition removes all partitions.
	HealPartition
	// InjectLoss sets a random message-loss probability in [5%, 25%].
	InjectLoss
	// ClearLoss removes message loss.
	ClearLoss
	// InjectDelay sets a random per-message delivery delay up to a few ms.
	InjectDelay
	// ClearDelay removes artificial delay.
	ClearDelay
	// SlowApply throttles one live replica's apply loop by a few ms per
	// batch, making it a straggler: commit quorum advances without it and
	// its dispatcher queue feels backpressure.
	SlowApply
	// ClearSlowApply removes all apply throttles.
	ClearSlowApply
	// Overload fires a burst of concurrent submits through the Config.Burst
	// callback, driving the admission controller into shedding. Skipped when
	// no callback is configured.
	Overload
	numFaults int = iota
)

var faultNames = [...]string{
	KillLeader:      "kill-leader",
	KillRandom:      "kill-random",
	RestartClean:    "restart",
	RestartCorrupt:  "restart-corrupt",
	PartitionLeader: "partition-leader",
	HealPartition:   "heal",
	InjectLoss:      "loss",
	ClearLoss:       "clear-loss",
	InjectDelay:     "delay",
	ClearDelay:      "clear-delay",
	SlowApply:       "slow-apply",
	ClearSlowApply:  "clear-slow-apply",
	Overload:        "overload",
}

func (f Fault) String() string {
	if int(f) < len(faultNames) {
		return faultNames[f]
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives both plan generation and every random choice made while
	// applying a step (victim selection, loss rate, corruption mode).
	Seed int64
	// Steps is the plan length (minimum: one of each anchor fault).
	Steps int
	// Logf, when set, receives one line per applied fault.
	Logf func(format string, args ...any)
	// Burst, when set, is called by Overload steps with a seeded burst size;
	// it should fire that many submits concurrently and tolerate
	// flow-control rejections (typed flowctl errors are the expected
	// outcome, not failures). Overload steps are skipped when nil.
	Burst func(n int)
}

// Injector drives a fault plan against one cluster. Step may be called from
// a different goroutine than the one submitting batches — that is the point:
// kills land mid-batch.
type Injector struct {
	c   *replica.Cluster
	cfg Config

	// stepMu serializes fault application: Step may be called from many
	// goroutines (to land kills mid-batch), but two overlapping kills could
	// each pass the quorum-budget check and together break quorum.
	stepMu      sync.Mutex
	partitioned bool // guarded by stepMu
	slowed      bool // guarded by stepMu: some replica has an apply throttle
	// Loss exposure, guarded by stepMu: the probability in force, the count
	// of the fabric's loss decisions when it came into force, and the log of
	// the odds that every decision made under loss so far let its message
	// through (see LossFreeOdds).
	lossP       float64
	lossBase    int64
	lossFreeLog float64

	mu       sync.Mutex
	rng      *rand.Rand
	plan     []Fault
	counters *metrics.CounterSet
}

// anchors are the fault kinds every plan is guaranteed to contain at least
// once, so no soak run silently skips a recovery path.
var anchors = []Fault{KillLeader, RestartCorrupt, PartitionLeader, HealPartition, InjectLoss, ClearLoss, SlowApply, ClearSlowApply, Overload}

// New builds an injector with a deterministic plan for cluster c. The plan
// always contains every anchor fault; remaining slots are filled uniformly
// and the whole schedule is shuffled by the seeded rng.
func New(c *replica.Cluster, cfg Config) *Injector {
	if cfg.Steps < len(anchors) {
		cfg.Steps = len(anchors)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	plan := make([]Fault, 0, cfg.Steps)
	plan = append(plan, anchors...)
	for len(plan) < cfg.Steps {
		plan = append(plan, Fault(rng.Intn(numFaults)))
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return &Injector{
		c:        c,
		cfg:      cfg,
		rng:      rng,
		plan:     plan,
		counters: metrics.NewCounterSet(),
	}
}

// Plan returns a copy of the fault schedule.
func (in *Injector) Plan() []Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Fault, len(in.plan))
	copy(out, in.plan)
	return out
}

// Steps returns the plan length.
func (in *Injector) Steps() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.plan)
}

// Counters returns the fault/outcome counters (keys are fault names plus
// "skipped" for steps that could not apply, e.g. a kill that would break
// quorum).
func (in *Injector) Counters() *metrics.CounterSet { return in.counters }

// Step applies the i-th planned fault. Steps that cannot apply in the
// current cluster state (killing below quorum, restarting with nothing
// down, healing with no partition) are counted as "skipped" and return nil;
// only real breakage returns an error.
func (in *Injector) Step(i int) error {
	in.mu.Lock()
	if i < 0 || i >= len(in.plan) {
		in.mu.Unlock()
		return fmt.Errorf("chaos: step %d out of range (plan has %d)", i, len(in.plan))
	}
	f := in.plan[i]
	in.mu.Unlock()
	// Chaos anchors are yield points: on a simulated clock the picker may
	// interleave other actors before the fault lands, and where it does so
	// is itself a pure function of the seed.
	vclock.Yield(in.c.Clock())
	in.stepMu.Lock()
	applied, err := in.apply(f)
	in.stepMu.Unlock()
	if err != nil {
		return fmt.Errorf("chaos: step %d (%s): %w", i, f, err)
	}
	if applied {
		in.counters.Add(f.String(), 1)
		in.logf("chaos: step %d: %s", i, f)
	} else {
		in.counters.Add("skipped", 1)
		in.logf("chaos: step %d: %s (skipped)", i, f)
	}
	return nil
}

func (in *Injector) logf(format string, args ...any) {
	if in.cfg.Logf != nil {
		in.cfg.Logf(format, args...)
	}
}

// killBudget returns how many replicas may be down simultaneously while a
// commit quorum stays live.
func (in *Injector) killBudget() int {
	return in.c.Size() - (in.c.Size()/2 + 1)
}

func (in *Injector) apply(f Fault) (bool, error) {
	switch f {
	case KillLeader, KillRandom:
		// A kill while the leader is partitioned away could leave live
		// replicas split with no quorum on either side: the cluster would
		// stall until a heal. Keep faults composable instead of stacking
		// into a total outage.
		if in.partitioned || len(in.c.DownReplicas()) >= in.killBudget() {
			return false, nil
		}
		victim := -1
		if f == KillLeader {
			li, err := in.c.WaitLeader(3 * time.Second)
			if err != nil {
				return false, nil // no leader to kill right now
			}
			victim = li
		} else {
			victim = in.pickLive()
		}
		if victim < 0 {
			return false, nil
		}
		if err := in.c.Crash(victim); err != nil {
			return false, err
		}
		return true, nil

	case RestartClean:
		down := in.c.DownReplicas()
		if len(down) == 0 {
			return false, nil
		}
		in.mu.Lock()
		victim := down[in.rng.Intn(len(down))]
		in.mu.Unlock()
		return true, in.c.Restart(victim)

	case RestartCorrupt:
		down := in.c.DownReplicas()
		if len(down) == 0 {
			// Nothing to corrupt: take a victim first so this anchor always
			// exercises the corrupted-recovery path.
			if in.partitioned || len(in.c.DownReplicas()) >= in.killBudget() {
				return false, nil
			}
			v := in.pickLive()
			if v < 0 {
				return false, nil
			}
			if err := in.c.Crash(v); err != nil {
				return false, err
			}
			down = []int{v}
		}
		in.mu.Lock()
		victim := down[in.rng.Intn(len(down))]
		mode := CorruptTorn
		if in.rng.Intn(2) == 1 {
			mode = CorruptBitFlip
		}
		err := CorruptTail(in.c.WALDir(victim), mode, in.rng)
		in.mu.Unlock()
		if err != nil && err != ErrNothingToCorrupt {
			return false, err
		}
		if err == nil {
			in.counters.Add("wal-corruptions", 1)
		}
		return true, in.c.Restart(victim)

	case PartitionLeader:
		if in.partitioned {
			return false, nil
		}
		// Partitioning with a replica already down (3-node cluster: isolated
		// leader on one side, one live + one dead on the other) would leave
		// no quorum anywhere. Bring the dead back first — a restart only adds
		// capacity — so the partition path is actually exercised.
		for _, d := range in.c.DownReplicas() {
			if err := in.c.Restart(d); err != nil {
				return false, err
			}
			in.counters.Add("restart", 1)
		}
		li, err := in.c.WaitLeader(3 * time.Second)
		if err != nil {
			return false, nil
		}
		ids := in.c.IDs()
		minority := []string{ids[li]}
		majority := make([]string, 0, len(ids)-1)
		for i, id := range ids {
			if i != li {
				majority = append(majority, id)
			}
		}
		in.c.Net.Partition(minority, majority)
		in.partitioned = true
		return true, nil

	case HealPartition:
		if !in.partitioned {
			return false, nil
		}
		in.c.Net.Heal()
		in.partitioned = false
		return true, nil

	case InjectLoss:
		// Like partitions, loss and delay act in the cluster's one fault
		// filter, which real sockets pass too.
		in.mu.Lock()
		p := 0.05 + in.rng.Float64()*0.20
		in.mu.Unlock()
		in.setLoss(p)
		return true, nil

	case ClearLoss:
		in.setLoss(0)
		return true, nil

	case InjectDelay:
		in.mu.Lock()
		max := time.Duration(1+in.rng.Intn(4)) * time.Millisecond
		in.mu.Unlock()
		in.c.Net.SetDelay(0, max)
		return true, nil

	case ClearDelay:
		in.c.Net.SetDelay(0, 0)
		return true, nil

	case SlowApply:
		v := in.pickLive()
		if v < 0 {
			return false, nil
		}
		in.mu.Lock()
		d := time.Duration(1+in.rng.Intn(4)) * time.Millisecond
		in.mu.Unlock()
		in.c.SetApplyDelay(v, d)
		in.slowed = true
		return true, nil

	case ClearSlowApply:
		if !in.slowed {
			return false, nil
		}
		for i := 0; i < in.c.Size(); i++ {
			in.c.SetApplyDelay(i, 0)
		}
		in.slowed = false
		return true, nil

	case Overload:
		if in.cfg.Burst == nil {
			return false, nil
		}
		in.mu.Lock()
		n := 8 + in.rng.Intn(24)
		in.mu.Unlock()
		in.cfg.Burst(n)
		in.counters.Add("overload-submits", int64(n))
		return true, nil
	}
	return false, fmt.Errorf("unknown fault %d", int(f))
}

// setLoss puts message-loss probability p in force (0 lifts it) and closes
// the books on the probability it replaces: the memnet fabric made some
// number of keep-or-drop decisions under that one, each keeping its message
// with probability 1-p. Callers hold stepMu.
func (in *Injector) setLoss(p float64) {
	st := in.c.Net.Stats()
	decided := st.Delivered + st.DroppedLoss + st.DroppedOverflow
	in.lossFreeLog += float64(decided-in.lossBase) * math.Log1p(-in.lossP)
	in.lossBase = decided
	in.lossP = p
	in.c.Net.SetLoss(p)
}

// LossFreeOdds returns the probability that the loss steps applied so far
// dropped no message at all, given how many messages the memnet fabric was
// offered while each was in force: 1 when none was, or when loss and
// clear-loss fired back to back with nothing sent in between. A soak may
// demand loss drops only when this is negligible. Loss still in force is
// counted up to the last loss, clear-loss or Quiesce.
func (in *Injector) LossFreeOdds() float64 {
	in.stepMu.Lock()
	defer in.stepMu.Unlock()
	return math.Exp(in.lossFreeLog)
}

// pickLive returns a random live replica index, or -1.
func (in *Injector) pickLive() int {
	var live []int
	for i := 0; i < in.c.Size(); i++ {
		if !in.c.IsDown(i) {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return live[in.rng.Intn(len(live))]
}

// Quiesce lifts every standing fault — heals partitions, clears loss and
// delay, restarts every crashed replica — and waits until all replicas have
// caught up to the leader's commit index. After a nil return the cluster
// must be convergent: identical state hashes everywhere.
func (in *Injector) Quiesce(within time.Duration) error {
	in.stepMu.Lock()
	defer in.stepMu.Unlock()
	in.partitioned = false
	in.c.Net.Heal()
	in.setLoss(0)
	in.c.Net.SetDelay(0, 0)
	if in.slowed {
		for i := 0; i < in.c.Size(); i++ {
			in.c.SetApplyDelay(i, 0)
		}
		in.slowed = false
	}
	for _, i := range in.c.DownReplicas() {
		if err := in.c.Restart(i); err != nil {
			return fmt.Errorf("chaos: quiesce restart %d: %w", i, err)
		}
		in.counters.Add("quiesce-restarts", 1)
	}
	if err := in.c.WaitCaughtUp(within); err != nil {
		return fmt.Errorf("chaos: quiesce: %w", err)
	}
	return nil
}
