package engine

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/profile"
)

// Task carries one request through a batch. BeginBatch binds the catalog
// entries and the outcome slot; the executor fills KS/Entry when it prepares
// the lock request.
type Task struct {
	Req   Request
	Prog  *lang.Program
	Prof  *profile.Profile
	Class profile.Class
	KS    *profile.KeySet
	Entry *locktable.Entry
	Out   *TxOutcome
	// guard is the lock-request list as prepared — reads ∪ writes with the
	// true write bit — which the execution is held to. Entry.Keys is the same
	// list, except under Config.ExclusiveLocks.
	guard []locktable.LockKey
}

// Work is what one step reports back to the pool: the store operations it
// performed (the virtual pool prices them; the threaded pool measures wall
// time instead) and whether the transaction must abort.
type Work struct {
	Reads, Writes int
	// Traversal marks a profile instantiation, which pays the cost model's
	// PrepareBase instead of the per-execution PerTx.
	Traversal bool
	Abort     bool
}

// Step runs one preparation or execution attempt of a task, for real.
type Step func(*Task) (Work, error)

// Pool is the set of workers a batch runs on. Executors write their batch
// logic once against it; the pool decides where each step runs and stamps
// Prepare/Exec/Done/VDone and the batch makespan. There are exactly two
// implementations: goroutines timed by the wall clock (NewThreadPool) and
// virtual clocks advanced by a CostModel (NewVirtualPool), which reproduce
// the paper's 20-core testbed deterministically on any host. Steps execute
// for real under both, in a lock-order-compatible sequence, so state
// evolution, pivot validation and aborts are identical.
type Pool interface {
	Workers() int
	// Lanes runs lanes[w] (exec steps) on worker w while the Queuer — with
	// helpers, joined by each worker once its lane is done — runs the
	// shared list (prep steps). Phase 1 of §III-C.
	Lanes(lanes [][]*Task, exec Step, shared []*Task, prep Step, helpers bool) error
	// Round enqueues the tasks' lock requests in slice order and drains
	// the ready queue on all workers. It returns the tasks whose exec step
	// reported Abort, in Seq order, and, when the lock table is tracing,
	// the round's grant/release records. A non-nil reprep is run on every
	// task first, in slice order (MF rounds). The Queuer does it while the
	// workers wait; with helpers the virtual pool prices it as shared among
	// the workers, which the threaded pool does not exploit.
	Round(tasks []*Task, reprep, exec Step, helpers bool, round int) ([]*Task, []locktable.Record, error)
	// Serial runs the exec steps in slice order on one worker.
	Serial(tasks []*Task, exec Step) error

	table() *locktable.Table
	begin()
	end() time.Duration // the batch's virtual makespan
}

func sortBySeq(txs []*Task) {
	sort.Slice(txs, func(i, j int) bool { return txs[i].Req.Seq < txs[j].Req.Seq })
}

func defaultWorkers(workers int) int {
	if workers <= 0 {
		return 4
	}
	return workers
}

// threadPool runs steps on real goroutines; the caller of each method plays
// the Queuer.
type threadPool struct {
	workers int
	lt      *locktable.Table
}

// NewThreadPool returns a pool of worker goroutines timed by the wall clock.
func NewThreadPool(workers int) Pool {
	return &threadPool{workers: defaultWorkers(workers), lt: locktable.New()}
}

func (p *threadPool) Workers() int            { return p.workers }
func (p *threadPool) table() *locktable.Table { return p.lt }
func (p *threadPool) begin()                  {}
func (p *threadPool) end() time.Duration      { p.lt.Clear(); return 0 }

func timedPrep(t *Task, prep Step) error {
	t0 := time.Now()
	_, err := prep(t)
	t.Out.Prepare += time.Since(t0)
	return err
}

func timedExec(t *Task, exec Step) (abort bool, err error) {
	t0 := time.Now()
	w, err := exec(t)
	end := time.Now()
	t.Out.Exec += end.Sub(t0)
	if err != nil {
		return false, err
	}
	if w.Abort {
		t.Out.Aborts++
		return true, nil
	}
	t.Out.Done = end
	return false, nil
}

// firstError keeps the first error reported by concurrent workers.
type firstError struct {
	once sync.Once
	err  error
}

func (f *firstError) report(err error) {
	if err != nil {
		f.once.Do(func() { f.err = err })
	}
}

func (p *threadPool) Lanes(lanes [][]*Task, exec Step, shared []*Task, prep Step, helpers bool) error {
	var first firstError
	sharedCh := make(chan *Task, len(shared)+1)
	for _, t := range shared {
		sharedCh <- t
	}
	close(sharedCh)
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []*Task) {
			defer wg.Done()
			for _, t := range lane {
				_, err := timedExec(t, exec)
				first.report(err)
			}
			if helpers {
				for t := range sharedCh {
					first.report(timedPrep(t, prep))
				}
			}
		}(lane)
	}
	for t := range sharedCh {
		first.report(timedPrep(t, prep))
	}
	wg.Wait()
	return first.err
}

func (p *threadPool) Round(tasks []*Task, reprep, exec Step, _ bool, round int) ([]*Task, []locktable.Record, error) {
	if len(tasks) == 0 {
		return nil, nil, nil
	}
	if reprep != nil {
		for _, t := range tasks {
			if err := timedPrep(t, reprep); err != nil {
				return nil, nil, err
			}
		}
	}
	p.lt.Reset()
	readyCh := make(chan *locktable.Entry, len(tasks)+1)
	for _, t := range tasks {
		t.Entry.Payload = t
		if p.lt.Enqueue(t.Entry) {
			readyCh <- t.Entry
		}
	}
	var remaining atomic.Int32
	remaining.Store(int32(len(tasks)))
	var failedMu sync.Mutex
	var failed []*Task
	var first firstError
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for entry := range readyCh {
				t := entry.Payload.(*Task)
				abort, err := timedExec(t, exec)
				first.report(err)
				if abort {
					failedMu.Lock()
					failed = append(failed, t)
					failedMu.Unlock()
				}
				p.lt.Release(entry, func(n *locktable.Entry) { readyCh <- n })
				if remaining.Add(-1) == 0 {
					close(readyCh)
				}
			}
		}()
	}
	wg.Wait()
	if first.err != nil {
		return nil, nil, first.err
	}
	sortBySeq(failed)
	return failed, p.lt.CollectTrace(round), nil
}

func (p *threadPool) Serial(tasks []*Task, exec Step) error {
	for _, t := range tasks {
		if _, err := timedExec(t, exec); err != nil {
			return err
		}
	}
	return nil
}

// CostModel prices the work of one step in virtual time. It makes the
// paper's central asymmetry structural: reconnaissance preparation pays a
// full execution, SE preparation pays only the pivot reads.
type CostModel struct {
	// PerTx is the fixed dispatch/bookkeeping cost of one execution.
	PerTx time.Duration
	// PerRead / PerWrite are per-store-operation costs.
	PerRead  time.Duration
	PerWrite time.Duration
	// PrepareBase is the fixed cost of instantiating a profile
	// (tree traversal); pivot reads add PerRead each.
	PrepareBase time.Duration
}

// DefaultCostModel calibrates to a RocksDB-class embedded store: ~20µs
// fixed per transaction, 4µs per read, 8µs per write.
func DefaultCostModel() CostModel {
	return CostModel{
		PerTx:       20 * time.Microsecond,
		PerRead:     4 * time.Microsecond,
		PerWrite:    8 * time.Microsecond,
		PrepareBase: 5 * time.Microsecond,
	}
}

func (c CostModel) price(w Work) time.Duration {
	fixed := c.PerTx
	if w.Traversal {
		fixed = c.PrepareBase
	}
	return fixed + time.Duration(w.Reads)*c.PerRead + time.Duration(w.Writes)*c.PerWrite
}

// virtualPool runs every step on the calling goroutine, in the order the
// threaded pool's scheduling discipline would start them — lock-table order,
// ready-queue dispatch to the earliest-free worker, phase barriers — and
// reads batch makespans and per-transaction completion times off per-worker
// virtual clocks. now is the last barrier: the instant every worker is idle.
type virtualPool struct {
	workers int
	lt      *locktable.Table
	cost    CostModel
	now     time.Duration
}

// NewVirtualPool returns a pool of virtual workers under DefaultCostModel.
func NewVirtualPool(workers int) Pool {
	return &virtualPool{workers: defaultWorkers(workers), lt: locktable.New(), cost: DefaultCostModel()}
}

func (p *virtualPool) Workers() int            { return p.workers }
func (p *virtualPool) table() *locktable.Table { return p.lt }
func (p *virtualPool) begin()                  { p.now = 0 }
func (p *virtualPool) end() time.Duration      { p.lt.Clear(); return p.now }

// idle returns n clocks standing at the last barrier.
func (p *virtualPool) idle(n int) []time.Duration {
	clocks := make([]time.Duration, n)
	for i := range clocks {
		clocks[i] = p.now
	}
	return clocks
}

// distribute charges c to the earliest clock (list scheduling).
func distribute(clocks []time.Duration, c time.Duration) {
	mi := 0
	for i := 1; i < len(clocks); i++ {
		if clocks[i] < clocks[mi] {
			mi = i
		}
	}
	clocks[mi] += c
}

func maxClock(clocks []time.Duration) time.Duration {
	var m time.Duration
	for _, c := range clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// prepAll runs the prep steps in slice order, list-scheduled over clocks.
func (p *virtualPool) prepAll(tasks []*Task, prep Step, clocks []time.Duration) error {
	for _, t := range tasks {
		w, err := prep(t)
		if err != nil {
			return err
		}
		c := p.cost.price(w)
		t.Out.Prepare += c
		distribute(clocks, c)
	}
	return nil
}

// execAt runs one exec step on a virtual worker free at start and returns
// the instant it finishes.
func (p *virtualPool) execAt(t *Task, exec Step, start time.Duration) (done time.Duration, abort bool, err error) {
	w, err := exec(t)
	if err != nil {
		return 0, false, err
	}
	c := p.cost.price(w)
	t.Out.Exec += c
	t.Out.VDone = start + c
	if w.Abort {
		t.Out.Aborts++
	} else {
		t.Out.Done = time.Now()
	}
	return start + c, w.Abort, nil
}

func (p *virtualPool) Lanes(lanes [][]*Task, exec Step, shared []*Task, prep Step, helpers bool) error {
	clocks := p.idle(1 + len(lanes)) // clocks[0] is the Queuer's
	for w, lane := range lanes {
		for _, t := range lane {
			done, _, err := p.execAt(t, exec, clocks[1+w])
			if err != nil {
				return err
			}
			clocks[1+w] = done
		}
	}
	preparers := clocks
	if !helpers {
		preparers = clocks[:1]
	}
	if err := p.prepAll(shared, prep, preparers); err != nil {
		return err
	}
	p.now = maxClock(clocks)
	return nil
}

// workerHeap is a min-heap of virtual worker free-times.
type workerHeap []time.Duration

func (h workerHeap) Len() int           { return len(h) }
func (h workerHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h workerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *workerHeap) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *workerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// readyItem is a task that has reached the head of all its queues.
type readyItem struct {
	task  *Task
	ready time.Duration // virtual instant it became ready
}

// readyHeap orders ready items by (ready, Seq) for deterministic dispatch.
type readyHeap []readyItem

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].task.Entry.Seq < h[j].task.Entry.Seq
}
func (h readyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)   { *h = append(*h, x.(readyItem)) }
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (p *virtualPool) Round(tasks []*Task, reprep, exec Step, helpers bool, round int) ([]*Task, []locktable.Record, error) {
	if len(tasks) == 0 {
		return nil, nil, nil
	}
	if reprep != nil {
		preparers := 1
		if helpers {
			preparers = p.workers
		}
		clocks := p.idle(preparers)
		if err := p.prepAll(tasks, reprep, clocks); err != nil {
			return nil, nil, err
		}
		p.now = maxClock(clocks)
	}
	p.lt.Reset()
	var ready readyHeap
	for _, t := range tasks {
		t.Entry.Payload = t
		if p.lt.Enqueue(t.Entry) {
			heap.Push(&ready, readyItem{task: t, ready: p.now})
		}
	}
	free := workerHeap(p.idle(p.workers))
	var failed []*Task
	for remaining := len(tasks); remaining > 0; remaining-- {
		if ready.Len() == 0 {
			return nil, nil, fmt.Errorf("engine: virtual round stalled with %d tasks pending", remaining)
		}
		item := heap.Pop(&ready).(readyItem)
		start := heap.Pop(&free).(time.Duration)
		if item.ready > start {
			start = item.ready
		}
		done, abort, err := p.execAt(item.task, exec, start)
		if err != nil {
			return nil, nil, err
		}
		heap.Push(&free, done)
		if done > p.now {
			p.now = done
		}
		if abort {
			failed = append(failed, item.task)
		}
		p.lt.Release(item.task.Entry, func(n *locktable.Entry) {
			heap.Push(&ready, readyItem{task: n.Payload.(*Task), ready: done})
		})
	}
	sortBySeq(failed)
	return failed, p.lt.CollectTrace(round), nil
}

func (p *virtualPool) Serial(tasks []*Task, exec Step) error {
	for _, t := range tasks {
		done, _, err := p.execAt(t, exec, p.now)
		if err != nil {
			return err
		}
		p.now = done
	}
	return nil
}
