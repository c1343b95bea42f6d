package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/profile"
	"prognosticator/internal/value"
)

// Task carries one request through a batch. BeginBatch binds the catalog
// entries, the request's arguments and the outcome slot; the executor fills
// KS/Entry when it prepares the lock request.
type Task struct {
	Req Request
	// Args are Req.Inputs bound to the program's parameter order
	// (lang.Program.Bind): what the program runs and its profile
	// instantiates from. They are a slice of the batch's one args slab.
	Args  []value.Value
	Prog  *lang.Program
	Prof  *profile.Profile
	Class profile.Class
	KS    *profile.KeySet
	Entry *locktable.Entry
	Out   *TxOutcome
	// pivotFree is the transaction's catalog flag, shown as Registry.PivotFree.
	pivotFree bool
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
	// Round enqueues the tasks' lock requests in slice order and runs each
	// task as the lock table grants it. The calling goroutine, the Queuer,
	// does all the lock-table work (see queue); the workers only run exec
	// steps. It returns the tasks whose exec step reported Abort, in Seq
	// order, and, when the lock table is tracing, the round's grant/release
	// records. A non-nil reprep is run on every task first, in slice order
	// (MF rounds). The Queuer does it while the workers wait; with helpers
	// the virtual pool prices it as shared among the workers, which the
	// threaded pool does not exploit.
	Round(tasks []*Task, reprep, exec Step, helpers bool, round int) ([]*Task, []locktable.Record, error)
	// Serial runs the exec steps in slice order on one worker.
	Serial(tasks []*Task, exec Step) error

	table() *locktable.Table
	begin()
	end() time.Duration // the batch's virtual makespan
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
	// Every ready task goes to the workers as soon as it is popped: a worker
	// that finishes takes the next in pop order without waiting for the
	// Queuer to release what it finished.
	return queue(p.lt, startWorkers(p.workers, len(tasks), exec), len(tasks), tasks, 0, round)
}

// workers are a round's goroutines on the threaded pool. They only run exec
// steps: they take the tasks the Queuer hands them in order and give each
// back when it is done.
type workers struct {
	todo  chan *Task
	done  chan finished
	wg    sync.WaitGroup
	count int // tasks finished so far
}

func startWorkers(n, tasks int, exec Step) *workers {
	// Each task is sent once each way, so no send blocks.
	w := &workers{todo: make(chan *Task, tasks), done: make(chan finished, tasks)}
	w.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer w.wg.Done()
			for t := range w.todo {
				abort, err := timedExec(t, exec)
				w.done <- finished{task: t, abort: abort, err: err}
			}
		}()
	}
	return w
}

func (w *workers) run(t *Task, _ time.Duration) { w.todo <- t }

// wait stamps the finish with the number of tasks finished so far: threads
// keep no clock, and that count orders releases as a clock would.
func (w *workers) wait() finished {
	f := <-w.done
	w.count++
	f.at = time.Duration(w.count)
	return f
}

// stop drops the tasks no worker has taken yet and waits for the workers.
func (w *workers) stop() {
	close(w.todo)
	for range w.todo {
	}
	w.wg.Wait()
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
	clocks[earliest(clocks)] += c
}

// earliest returns the index of the first clock to stand at the minimum.
func earliest(clocks []time.Duration) int { return slices.Index(clocks, slices.Min(clocks)) }

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
	p.now = slices.Max(clocks)
	return nil
}

// readyItem is a task that has reached the head of all its queues.
type readyItem struct {
	task  *Task
	ready time.Duration // instant it became ready, as finished.at counts it
}

// readyHeap is a binary min-heap of ready items ordered by (ready, Seq),
// for deterministic dispatch. It is typed, not a container/heap, which would
// box every item it is handed.
type readyHeap []readyItem

func (h readyHeap) less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].task.Entry.Seq < h[j].task.Entry.Seq
}

func (h *readyHeap) push(it readyItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0 && q.less(i, (i-1)/2); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
}

// pop takes the next task to dispatch off the heap: the earliest ready, and
// the lowest Seq among those.
func (h *readyHeap) pop() readyItem {
	q := *h
	top, n := q[0], len(q)-1
	q[0], q[n] = q[n], readyItem{}
	q = q[:n]
	*h = q
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && q.less(c+1, c) {
			c++
		}
		if c >= n || !q.less(c, i) {
			return top
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// finished is a dispatched task as the Queuer gets it back: the instant it
// finished and what its exec step reported.
type finished struct {
	task  *Task
	at    time.Duration // virtual time; on threads, the tasks finished so far
	abort bool
	err   error
}

// dispatcher runs the tasks a round pops; it is all the two pools do
// differently in a round.
type dispatcher interface {
	// run starts t, ready since the given instant.
	run(t *Task, ready time.Duration)
	// wait returns the next started task to finish.
	wait() finished
	// stop ends the round: no step runs once it returns.
	stop()
}

// queue is the lock-table protocol of Pool.Round, for both pools. The
// calling goroutine, the Queuer, does all of it: it enqueues the tasks in
// slice order, ready at start; pops ready tasks and has d run them, up to
// slots at once; and releases each as d returns it, which readies its
// successors at the instant it finished. Nothing else touches the table.
func queue(lt *locktable.Table, d dispatcher, slots int, tasks []*Task, start time.Duration, round int) ([]*Task, []locktable.Record, error) {
	defer d.stop()
	lt.Reset()
	ready := make(readyHeap, 0, len(tasks))
	for _, t := range tasks {
		t.Entry.Payload = t
		if lt.Enqueue(t.Entry) {
			ready.push(readyItem{task: t, ready: start})
		}
	}
	var failed []*Task
	running := 0
	for remaining := len(tasks); remaining > 0; remaining-- {
		for ; running < slots && len(ready) > 0; running++ {
			item := ready.pop()
			d.run(item.task, item.ready)
		}
		if running == 0 {
			return nil, nil, fmt.Errorf("engine: round stalled with %d tasks pending", remaining)
		}
		f := d.wait()
		running--
		if f.err != nil {
			return nil, nil, f.err
		}
		if f.abort {
			failed = append(failed, f.task)
		}
		lt.Release(f.task.Entry, func(n *locktable.Entry) {
			ready.push(readyItem{task: n.Payload.(*Task), ready: f.at})
		})
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].Req.Seq < failed[j].Req.Seq })
	return failed, lt.CollectTrace(round), nil
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
		p.now = slices.Max(clocks)
	}
	// One task out at a time: it runs to its end on the earliest-free virtual
	// worker, and is released, before the next is popped.
	return queue(p.lt, &inline{p: p, exec: exec, free: p.idle(p.workers)}, 1, tasks, p.now, round)
}

// inline runs a round's tasks on the virtual pool's clocks.
type inline struct {
	p    *virtualPool
	exec Step
	free []time.Duration // each virtual worker's free instant
	last finished
}

func (d *inline) run(t *Task, ready time.Duration) {
	w := earliest(d.free)
	done, abort, err := d.p.execAt(t, d.exec, max(d.free[w], ready))
	d.free[w] = done
	d.p.now = max(d.p.now, done)
	d.last = finished{task: t, at: done, abort: abort, err: err}
}

func (d *inline) wait() finished { return d.last }
func (d *inline) stop()          {}

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
