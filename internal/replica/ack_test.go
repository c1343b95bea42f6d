package replica

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSubmitWakeupNotLost sends many one-transaction batches from four
// goroutines with SubmitWindow far above anything a healthy submit takes. A
// submitter that checked, missed the apply and then slept would sit out the
// window, so one lost wake-up shows as a submit of tens of seconds.
func TestSubmitWakeupNotLost(t *testing.T) {
	const submitters, each = 4, 60
	const window = 30 * time.Second
	for _, quorum := range []bool{false, true} {
		cfg := clusterConfig(t, 3, nil)
		cfg.SubmitWindow = window
		cfg.QuorumSubmit = quorum
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitLeader(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var worst time.Duration
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					start := time.Now()
					if err := c.SubmitBatch([]Request{deposit(int64(s), 1)}, 2*window); err != nil {
						t.Errorf("submitter %d batch %d: %v", s, i, err)
						return
					}
					mu.Lock()
					worst = max(worst, time.Since(start))
					mu.Unlock()
				}
			}(s)
		}
		wg.Wait()
		if worst > window/4 {
			t.Errorf("quorum=%v: slowest submit took %v with a %v window: a wake-up was lost", quorum, worst, window)
		}
		if err := c.WaitCaughtUp(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.Size(); i++ {
			if got := c.ReplicaAt(i).Batches(); got != submitters*each {
				t.Errorf("quorum=%v: replica %d applied %d batches, want %d", quorum, i, got, submitters*each)
			}
		}
		c.Stop()
	}
}

// TestSubmitAcknowledgedAcrossRestart crashes and restarts a replica while
// a submit is waiting on another one. The restarted replica is a new object
// that knows the batch only through its recovered dedup table, and the
// wake-up that ends the wait arrives after the replacement: the submit must
// still be acknowledged, and promptly, not at the end of its window.
func TestSubmitAcknowledgedAcrossRestart(t *testing.T) {
	const window = 30 * time.Second
	cfg := clusterConfig(t, 3, nil)
	cfg.DataDir = t.TempDir()
	cfg.SubmitWindow = window
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	held, bounced := (li+1)%3, (li+2)%3
	ids := c.IDs()
	// held cannot hear of the batch, so the submit (which waits for every
	// live replica) stays open across the restart of bounced.
	c.Net.Partition([]string{ids[held]}, []string{ids[li], ids[bounced]})

	done := make(chan error, 1)
	go func() { done <- c.SubmitBatch([]Request{deposit(7, 5)}, 2*window) }()
	for deadline := time.Now().Add(10 * time.Second); c.ReplicaAt(bounced).Batches() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the majority side never applied the batch")
		}
		time.Sleep(time.Millisecond)
	}
	before := c.ReplicaAt(bounced)
	if err := c.Crash(bounced); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(bounced); err != nil {
		t.Fatal(err)
	}
	if c.ReplicaAt(bounced) == before {
		t.Fatal("Restart did not replace the replica")
	}
	if !c.ReplicaAt(bounced).appliedSeq(c.session, 1) {
		t.Fatal("restarted replica did not recover the batch in flight")
	}
	select {
	case err := <-done:
		t.Fatalf("submit returned (%v) while a live replica had not applied", err)
	default:
	}

	healed := time.Now()
	c.Net.Heal()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(window / 2):
		t.Fatal("submit still waiting long after the last replica could apply: wake-up lost across the restart")
	}
	t.Logf("acknowledged %v after the heal", time.Since(healed))
	if err := c.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		if got := c.ReplicaAt(i).Batches(); got != 1 {
			t.Errorf("replica %d reflects %d batches, want exactly 1", i, got)
		}
	}
	if !c.Converged() {
		t.Fatalf("replicas diverged: %x", c.StateHashes())
	}
}

// TestHappySubmitBuildsNoBackoff: with a leader in place and the batch
// applying, neither the leader wait nor the submit has anything to back off
// from, so a submit must not build a Backoff (a seeded rand.Rand, ~5 KB)
// just in case. WaitCaughtUp has none of its own either.
func TestHappySubmitBuildsNoBackoff(t *testing.T) {
	c, err := NewCluster(clusterConfig(t, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.WaitLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	backoffs := func() int64 { return c.Flow().Counters().Value("backoffs") }
	before := backoffs()
	for i := 0; i < 20; i++ {
		if err := c.SubmitBatch([]Request{deposit(int64(i), 1)}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitCaughtUp(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := backoffs() - before; got != 0 {
		t.Errorf("20 uncontended submits on a healthy cluster built %d backoffs, want 0", got)
	}
}

// TestStopEndsWaits: a submit that can never be applied (its leader is cut
// off from both followers) and a WaitCaughtUp return when the cluster stops,
// not when their deadlines run out.
func TestStopEndsWaits(t *testing.T) {
	cfg := clusterConfig(t, 3, nil)
	cfg.SubmitWindow = time.Minute
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			c.Stop()
		}
	}()
	li, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ids := c.IDs()
	c.Net.Partition([]string{ids[li]}, []string{ids[(li+1)%3], ids[(li+2)%3]})
	done := make(chan error, 1)
	go func() { done <- c.SubmitBatch([]Request{deposit(1, 1)}, time.Minute) }()
	select {
	case err := <-done:
		t.Fatalf("submit through an isolated leader returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	stopped = true
	c.Stop()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "stopped") {
			t.Fatalf("submit returned %v, want the cluster-stopped error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submit still waiting 10 s after Stop")
	}
}
