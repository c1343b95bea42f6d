package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prognosticator/internal/baselines"
	"prognosticator/internal/engine"
	"prognosticator/internal/flowctl"
	"prognosticator/internal/history"
	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/memnet"
	"prognosticator/internal/profile"
	"prognosticator/internal/raft"
	"prognosticator/internal/replica"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/store"
	"prognosticator/internal/tcpnet"
	"prognosticator/internal/value"
	"prognosticator/internal/wal"
)

// ladderEvery: every ladderEvery-th prefix batch climbs the layer ladder.
const ladderEvery = 4

// raftSamples is how many proposals the consensus rungs time, so that their
// p99 has ten samples beyond it.
const raftSamples = 1000

// rung is the time one layer spent on the sampled batches and the number of
// operations that time covers.
type rung struct {
	d time.Duration
	n int
}

func (g *rung) add(d time.Duration, n int) { g.d += d; g.n += n }
func (g rung) usPer() float64              { return per(us(g.d), float64(g.n)) }
func (g rung) nsPer() float64              { return per(float64(g.d.Nanoseconds()), float64(g.n)) }

// ladderResult is everything the traced replays and the ladder measured on
// the fixed prefix.
type ladderResult struct {
	plain, traced, seq time.Duration // prefix through the engine, the traced engine, SEQ
	plain2p            time.Duration // prefix through the engine on two processors
	exact              execStats     // traced replay: counts that repeat exactly
	batches, tx        int

	// Engine rungs (engine workloads).
	instantiate, direct, memoHit rung
	keys                         int // key-set entries instantiated
	lockCycle, lockContended     rung
	langExec                     rung
	reads, writes                int // per lang execution
	get, put, encode             rung
	gcMs                         float64
	storeKeys                    int

	// Consensus rungs (cluster workload).
	seqEncode, seqDecode   rung
	payloadBytes           int
	walOSUs, walAlwaysUs   []float64 // one per append
	walBytes               int64
	walSyncs               int64
	raftMs, tcpMs          []float64
	msgs                   int64
	termChanges            int
	admit                  rung
	snapshotMs, snapshotMB float64
}

// ladder replays the fixed prefix three more ways — through the plain engine,
// the sequential baseline and the traced engine — and then takes every
// ladderEvery-th batch through each layer's public API in isolation: profile,
// locktable, lang, store and value on the engine workloads; sequencer, wal,
// raft, flowctl and the snapshot writer on the cluster workload, the only one
// where those layers do any work.
func (r *run) ladder(prefix [][]engine.Request, want uint64) (*ladderResult, error) {
	res, o := r.res, r.o
	L := &ladderResult{batches: len(prefix)}
	for _, b := range prefix {
		L.tx += len(b)
	}
	var err error
	var h uint64
	if L.plain, h, _, err = r.replay(func(st *store.Store) engine.Executor {
		return engine.New(r.reg, st, engine.Config{Workers: o.workers})
	}, prefix); err != nil {
		return nil, fmt.Errorf("plain replay: %w", err)
	}
	if h != want {
		res.problemf("plain replay ended at %016x, the system at %016x", h, want)
	}

	// The same on two processors: what the run's single one (procs) hides.
	// Unbounded and as unsteady as the host's second processor.
	runtime.GOMAXPROCS(2)
	L.plain2p, h, _, err = r.replay(func(st *store.Store) engine.Executor {
		return engine.New(r.reg, st, engine.Config{Workers: o.workers})
	}, prefix)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, fmt.Errorf("two-processor replay: %w", err)
	}
	if h != want {
		res.problemf("two-processor replay ended at %016x, the system at %016x", h, want)
	}

	// Sequential baseline: the same batches with no profile, no lock table,
	// one thread. Its serial order differs from the engine's (DTs ahead of
	// ITs), so its state is not compared.
	if L.seq, _, _, err = r.replay(func(st *store.Store) engine.Executor {
		return baselines.NewSEQ(r.reg, st)
	}, prefix); err != nil {
		return nil, fmt.Errorf("SEQ replay: %w", err)
	}

	// Traced engine: lock trace and footprints on, every batch observed by
	// the history recorder.
	var initial map[string]string
	rec := history.NewRecorder()
	batchNo := 0
	var te *timedExec
	var st *store.Store
	if L.traced, h, st, err = r.replay(func(st *store.Store) engine.Executor {
		initial = map[string]string{}
		st.ForEach(st.Epoch(), func(k value.Encoded, v value.Value) { initial[string(k)] = engine.Fingerprint(v) })
		te = &timedExec{tr: r.tr, name: "traced.engine.batch",
			inner: engine.New(r.reg, st, engine.Config{Workers: o.workers, TraceLocks: true, RecordFootprints: true}),
			observe: func(batch []engine.Request, br *engine.BatchResult) {
				batchNo++
				rec.Observe("bench", uint64(batchNo), "", batch, br)
			}}
		return te
	}, prefix); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	L.exact = te.snapshot()
	if h != want {
		res.problemf("traced replay ended at %016x, the system at %016x", h, want)
	}
	if err := rec.CheckTraced(initial); err != nil {
		res.problemf("history.CheckTraced: %v", err)
	}
	rec, initial = nil, nil
	runtime.GC() // the replay stores are garbage by now; the rungs should not pay for them

	if r.w.cluster {
		return L, r.consensusRungs(L, st, prefix)
	}
	return L, r.engineRungs(L, st, prefix)
}

// engineRungs takes the sampled batches through profile, locktable, lang,
// store and value, one layer at a time, against st (the state after the
// prefix). It leaves st modified.
func (r *run) engineRungs(L *ladderResult, st *store.Store, prefix [][]engine.Request) error {
	reg := r.reg
	view := st.ViewAt(st.Epoch())
	scratch := st.BeginEpoch() // store puts land in an epoch of their own
	memo := profile.NewDirectMemo(1<<16, nil)
	for bi := 0; bi < len(prefix); bi += ladderEvery {
		batch := prefix[bi]
		root := r.tr.start("ladder.batch", 0, bi+1)
		child := func(name string) openSpan { return r.tr.start(name, root.id, bi+1) }

		// profile: key-set instantiation of every update transaction (ROT
		// profiles are never instantiated by the engine).
		var keysets []*profile.KeySet
		var updates []engine.Request
		for _, q := range batch {
			if reg.Classes[q.TxName] != profile.ClassROT {
				updates = append(updates, q)
			}
		}
		sp := child("ladder.profile.instantiate")
		for _, q := range updates {
			ks, err := reg.Profiles[q.TxName].Instantiate(q.Inputs, view)
			if err != nil {
				return fmt.Errorf("instantiate %s: %w", q.TxName, err)
			}
			keysets = append(keysets, ks)
		}
		L.instantiate.add(sp.end(), len(updates))
		var pivotFree []engine.Request
		for _, q := range updates {
			if reg.PivotFree[q.TxName] {
				pivotFree = append(pivotFree, q)
			}
		}
		sp = child("ladder.profile.direct")
		for _, q := range pivotFree {
			if _, err := reg.Profiles[q.TxName].InstantiateDirect(q.Inputs); err != nil {
				return fmt.Errorf("instantiate direct %s: %w", q.TxName, err)
			}
		}
		L.direct.add(sp.end(), len(pivotFree))
		for _, q := range pivotFree { // fill, untimed
			if _, err := memo.InstantiateDirect(reg.Profiles[q.TxName], q.Inputs); err != nil {
				return err
			}
		}
		sp = child("ladder.profile.memo_hit")
		for _, q := range pivotFree {
			if _, err := memo.InstantiateDirect(reg.Profiles[q.TxName], q.Inputs); err != nil {
				return err
			}
		}
		L.memoHit.add(sp.end(), len(pivotFree))

		// locktable: the batch's real key-sets through BuildKeys, Enqueue and
		// Release with nothing executed in between; then the same with two
		// releasing goroutines beside the enqueuer, as in the engine.
		sp = child("ladder.locktable.cycle")
		lockCycle(keysets, 0)
		L.lockCycle.add(sp.end(), len(keysets))
		sp = child("ladder.locktable.contended")
		lockCycle(keysets, 2)
		L.lockContended.add(sp.end(), len(keysets))

		// lang: the interpreter over an engine.Overlay on the snapshot, one
		// transaction after the other; writes stay in the overlay.
		var readKeys, writeKeys []value.Key
		sp = child("ladder.lang.exec")
		for _, q := range batch {
			out, err := lang.Run(reg.Programs[q.TxName], q.Inputs, engine.NewOverlay(view))
			if err != nil {
				return fmt.Errorf("lang.Run %s: %w", q.TxName, err)
			}
			readKeys = append(readKeys, out.Reads...)
			writeKeys = append(writeKeys, out.Writes...)
		}
		L.langExec.add(sp.end(), len(batch))
		L.reads += len(readKeys)
		L.writes += len(writeKeys)

		// store: the keys those executions touched.
		vals := make([]value.Value, len(writeKeys))
		for i, k := range writeKeys {
			vals[i], _ = view.Get(k)
		}
		sp = child("ladder.store.get")
		for _, k := range readKeys {
			view.Get(k)
		}
		L.get.add(sp.end(), len(readKeys))
		sp = child("ladder.store.put")
		for i, k := range writeKeys {
			st.Put(scratch, k, vals[i])
		}
		L.put.add(sp.end(), len(writeKeys))

		// value: key encoding, which every store and lock-table call pays.
		sp = child("ladder.value.encode")
		for _, k := range readKeys {
			_ = k.Encode()
		}
		for _, k := range writeKeys {
			_ = k.Encode()
		}
		L.encode.add(sp.end(), len(readKeys)+len(writeKeys))
		for _, ks := range keysets {
			L.keys += len(ks.Reads) + len(ks.Writes)
		}
		root.end()
	}
	L.storeKeys = st.Len()
	sp := r.tr.start("ladder.store.gc", 0, 0)
	st.GC(scratch)
	L.gcMs = ms(sp.end())
	return nil
}

// lockCycle enqueues one entry per key-set in order and releases each as it
// becomes ready. With releasers == 0 everything happens on the calling
// goroutine; otherwise that many goroutines release while the caller
// enqueues.
func lockCycle(keysets []*profile.KeySet, releasers int) {
	if len(keysets) == 0 {
		return
	}
	lt := locktable.New()
	ready := make(chan *locktable.Entry, len(keysets)+1)
	var remaining atomic.Int32
	remaining.Store(int32(len(keysets)))
	drain := func(block bool) {
		for {
			var e *locktable.Entry
			if block {
				var ok bool
				if e, ok = <-ready; !ok {
					return
				}
			} else {
				select {
				case e = <-ready:
				default:
					return
				}
			}
			lt.Release(e, func(n *locktable.Entry) { ready <- n })
			if remaining.Add(-1) == 0 {
				close(ready)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < releasers; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); drain(true) }()
	}
	for i, ks := range keysets {
		e := &locktable.Entry{Seq: uint64(i + 1), Keys: locktable.BuildKeys(ks.Reads, ks.Writes)}
		if lt.Enqueue(e) {
			ready <- e
		}
	}
	if releasers == 0 {
		drain(false)
	}
	wg.Wait()
}

// raftGroup is a three-node consensus group persisting to disk like a
// cluster node does, with no executor behind it.
type raftGroup struct {
	nodes    []*raft.Node
	storages []*raft.FileStorage
	stop     chan struct{}
	wg       sync.WaitGroup
	closeNet func()
}

// startRaftGroup starts three nodes, each over the transport made for it and
// with its raft state under dir.
func startRaftGroup(seed int64, dir string, transport func(id string) (raft.Transport, error), closeNet func()) (*raftGroup, error) {
	ids := []string{"n0", "n1", "n2"}
	g := &raftGroup{stop: make(chan struct{}), closeNet: closeNet}
	for i, id := range ids {
		tr, err := transport(id)
		if err != nil {
			g.shutdown()
			return nil, err
		}
		stg, err := raft.OpenFileStorage(filepath.Join(dir, id))
		if err != nil {
			g.shutdown()
			return nil, err
		}
		g.storages = append(g.storages, stg)
		n := raft.NewNodeWithTransport(id, ids, tr, raft.Config{}, seed+int64(i))
		if err := n.UseStorage(stg); err != nil {
			g.shutdown()
			return nil, err
		}
		g.nodes = append(g.nodes, n)
	}
	for _, n := range g.nodes {
		n.Start()
	}
	return g, nil
}

func (g *raftGroup) shutdown() {
	close(g.stop)
	for _, n := range g.nodes {
		n.Stop()
	}
	g.wg.Wait()
	for _, stg := range g.storages {
		_ = stg.Close() // nothing is read back from a rung's raft state
	}
	g.closeNet()
}

// leader waits for a leader and returns it with its term.
func (g *raftGroup) leader() (*raft.Node, uint64, error) {
	for deadline := time.Now().Add(submitTimeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, n := range g.nodes {
			if role, term := n.Status(); role == raft.Leader {
				return n, term, nil
			}
		}
	}
	return nil, 0, fmt.Errorf("raft group elected no leader")
}

// commitLatencies proposes payloads round-robin and times each from Propose
// to its delivery on the leader's apply channel.
func (g *raftGroup) commitLatencies(r *run, name string, payloads [][]byte, samples int) ([]float64, int, error) {
	ld, term0, err := g.leader()
	if err != nil {
		return nil, 0, err
	}
	for _, n := range g.nodes {
		if n == ld {
			continue
		}
		g.wg.Add(1)
		go func(n *raft.Node) {
			defer g.wg.Done()
			for {
				select {
				case <-n.Apply():
				case <-g.stop:
					return
				}
			}
		}(n)
	}
	lat := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		sp := r.tr.start(name, 0, i+1)
		idx, _, ok := ld.Propose(payloads[i%len(payloads)])
		if !ok {
			return nil, 0, fmt.Errorf("%s: leader refused proposal %d", name, i)
		}
		for {
			select {
			case c := <-ld.Apply():
				if c.Index < idx {
					continue
				}
			case <-time.After(submitTimeout):
				return nil, 0, fmt.Errorf("%s: proposal %d not committed", name, i)
			}
			break
		}
		lat = append(lat, ms(sp.end()))
	}
	_, term1 := ld.Status()
	return lat, int(term1 - term0), nil
}

// consensusRungs takes the sampled batches through sequencer, wal, raft
// (memnet and loopback TCP), flowctl admission and the snapshot writer, each
// alone. st is the state after the prefix.
func (r *run) consensusRungs(L *ladderResult, st *store.Store, prefix [][]engine.Request) error {
	var sampled [][]byte
	osLog, err := wal.Open(filepath.Join(r.dir, "rung-wal-os"), wal.Options{Sync: wal.SyncOS})
	if err != nil {
		return err
	}
	defer osLog.Close()
	alwaysDir := filepath.Join(r.dir, "rung-wal-always")
	alwaysLog, err := wal.Open(alwaysDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer alwaysLog.Close()
	for bi := 0; bi < len(prefix); bi += ladderEvery {
		sp := r.tr.start("ladder.sequencer.encode", 0, bi+1)
		p, err := sequencer.EncodeBatchID(fmt.Sprintf("b%d", bi), prefix[bi])
		if err != nil {
			return err
		}
		L.seqEncode.add(sp.end(), 1)
		sampled = append(sampled, p)
		L.payloadBytes += len(p)
		sp = r.tr.start("ladder.sequencer.decode", 0, bi+1)
		if _, err := sequencer.DecodeBatch(raft.Committed{Index: uint64(bi + 1), Term: 1, Cmd: p}); err != nil {
			return err
		}
		L.seqDecode.add(sp.end(), 1)
		sp = r.tr.start("ladder.wal.append_os", 0, bi+1)
		if err := osLog.Append(p); err != nil {
			return err
		}
		L.walOSUs = append(L.walOSUs, us(sp.end()))
		sp = r.tr.start("ladder.wal.append_always", 0, bi+1)
		if err := alwaysLog.Append(p); err != nil {
			return err
		}
		L.walAlwaysUs = append(L.walAlwaysUs, us(sp.end()))
	}
	L.walSyncs = alwaysLog.Syncs()
	segs, err := wal.SegmentPaths(alwaysDir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return err
		}
		L.walBytes += fi.Size()
	}

	// raft over memnet: zero injected delay, state fsynced as on a cluster
	// node, no executor.
	net := memnet.New(r.o.seed)
	g, err := startRaftGroup(r.o.seed, filepath.Join(r.dir, "rung-raft-memnet"), func(id string) (raft.Transport, error) {
		return net.Endpoint(id), nil
	}, net.Close)
	if err != nil {
		return err
	}
	sent0 := net.Stats().Delivered
	samples, admits := raftSamples, 100000
	if r.o.smoke {
		samples, admits = 20, 1000
	}
	lat, terms, err := g.commitLatencies(r, "ladder.raft.commit", sampled, samples)
	L.msgs = net.Stats().Delivered - sent0
	g.shutdown()
	if err != nil {
		return err
	}
	L.raftMs, L.termChanges = lat, terms

	// raft over loopback sockets.
	tcpnet.Register(raft.WireTypes()...)
	tcpDir := tcpnet.NewDirectory()
	var eps []*tcpnet.Endpoint
	g, err = startRaftGroup(r.o.seed, filepath.Join(r.dir, "rung-raft-tcpnet"), func(id string) (raft.Transport, error) {
		ep, err := tcpnet.Listen(id, "127.0.0.1:0", tcpDir)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		return ep, nil
	}, func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	if err != nil {
		return fmt.Errorf("raft over loopback TCP: %w", err)
	}
	lat, terms, err = g.commitLatencies(r, "ladder.tcpnet.commit", sampled, samples)
	g.shutdown()
	if err != nil {
		return err
	}
	L.tcpMs = lat
	L.termChanges += terms

	// flowctl: admission with the cluster's policy (no limits set).
	ctl := flowctl.NewController(flowctl.Config{Seed: r.o.seed})
	sp := r.tr.start("ladder.flowctl.admit", 0, 0)
	for i := 0; i < admits; i++ {
		release, err := ctl.Admit()
		if err != nil {
			return err
		}
		release()
	}
	L.admit.add(sp.end(), admits)

	// snapshot: capture, encode and durably write the state after the prefix.
	sp = r.tr.start("ladder.replica.snapshot", 0, 0)
	enc, err := replica.EncodeSnapshot(&replica.StoreSnapshot{Index: uint64(len(prefix)), Batches: len(prefix), Pairs: replica.CaptureStore(st)})
	if err != nil {
		return err
	}
	if err := replica.WriteSnapshotFile(filepath.Join(r.dir, "rung-snap"), uint64(len(prefix)), enc); err != nil {
		return err
	}
	L.snapshotMs, L.snapshotMB = ms(sp.end()), float64(len(enc))/(1<<20)
	return nil
}

// layerMetrics derives every per-layer metric from the ladder (fixed prefix)
// and from what the executors and the clients saw in the timed window.
func (r *run) layerMetrics(L *ladderResult, win *windowResult, recovery time.Duration) {
	res, w, after := r.res, r.w, &win.after
	onEngine, onCluster := res.layer(!w.cluster), res.layer(w.cluster)
	var live execStats // the window, all executors of the system pooled
	for _, te := range r.execs {
		s := te.snapshot()
		live.add(&s)
	}
	tx, batches := float64(L.tx), float64(L.batches)
	committed := float64(win.attempted - win.failed)
	workers := float64(r.o.workers)

	// engine: window timings, prefix counts.
	res.set("engine.prepare_us_per_tx", per(us(live.prepare), float64(live.tx)), "us")
	res.set("engine.exec_us_per_tx", per(us(live.exec), float64(live.tx)), "us")
	res.set("engine.busy_frac", per(float64(live.prepare+live.exec), workers*float64(live.wall)), "frac")
	res.set("engine.rot_frac", per(float64(L.exact.rots), tx), "frac")
	res.set("engine.direct_keys_per_tx", per(float64(L.exact.directKeys), tx), "count")
	res.set("engine.aborts_per_tx", per(float64(L.exact.aborts), tx), "count")
	res.set("engine.fail_rounds_per_batch", per(float64(L.exact.failRounds), batches), "count")
	res.set("engine.speedup_vs_seq", per(float64(L.seq), float64(L.plain)), "ratio")
	res.set("engine.speedup_2p", per(float64(L.plain), float64(L.plain2p)), "ratio")
	res.set("locktable.grants_per_tx", per(float64(L.exact.grants), float64(L.exact.updates)), "count")
	res.set("locktable.key_events_p99", percentile(L.exact.keyEvents, 99), "count")
	var analyze time.Duration
	for _, p := range r.reg.Profiles {
		analyze += p.Stats.Duration
	}
	res.set("symexec.analyze_ms_total", ms(analyze), "ms")

	// profile / locktable / lang / store / value: the engine rungs.
	sampledTx := float64(L.langExec.n)
	updateShare := per(float64(L.instantiate.n), sampledTx)
	writesPerTx := per(float64(L.writes), sampledTx)
	onEngine("profile.instantiate_us_per_tx", L.instantiate.usPer(), "us")
	onEngine("profile.direct_us_per_tx", L.direct.usPer(), "us")
	onEngine("profile.memo_hit_us_per_tx", L.memoHit.usPer(), "us")
	onEngine("profile.keys_per_tx", per(float64(L.keys), float64(L.instantiate.n)), "count")
	onEngine("locktable.cycle_us_per_tx", L.lockCycle.usPer(), "us")
	onEngine("locktable.cycle_contended_us_per_tx", L.lockContended.usPer(), "us")
	onEngine("lang.exec_us_per_tx", L.langExec.usPer(), "us")
	onEngine("lang.reads_per_tx", per(float64(L.reads), sampledTx), "count")
	onEngine("lang.writes_per_tx", writesPerTx, "count")
	onEngine("store.get_ns", L.get.nsPer(), "ns")
	onEngine("store.put_ns", L.put.nsPer(), "ns")
	onEngine("store.gc_ms", L.gcMs, "ms")
	onEngine("store.keys", float64(L.storeKeys), "count")
	onEngine("value.encode_ns_per_key", L.encode.nsPer(), "ns")

	// Reconciliation: what the layers add up to per transaction, spread over
	// as many workers as have a processor to run on, against the wall time
	// the engine took per transaction. lang.exec already contains the store
	// gets it made; an aborted execution is prepared, enqueued and executed
	// once more.
	abortsPerTx := per(float64(L.exact.aborts), tx)
	cycleUs := L.instantiate.usPer() + L.lockCycle.usPer()
	layerUs := updateShare*cycleUs + L.langExec.usPer() + writesPerTx*L.put.nsPer()/1e3 + abortsPerTx*(cycleUs+L.langExec.usPer())
	wallUs := per(us(live.wall), float64(live.tx))
	parallel := math.Min(workers, float64(runtime.GOMAXPROCS(0)))
	onEngine("engine.unexplained_frac", 1-per(layerUs/parallel, wallUs), "frac")

	// sequencer / wal / raft / flowctl / snapshot: the consensus rungs.
	sampledBatches := float64(L.seqEncode.n)
	onCluster("sequencer.encode_us_per_batch", L.seqEncode.usPer(), "us")
	onCluster("sequencer.decode_us_per_batch", L.seqDecode.usPer(), "us")
	onCluster("sequencer.bytes_per_tx", per(float64(L.payloadBytes), sampledBatches*float64(w.txPerBatch)), "B")
	walAlwaysUs := percentile(L.walAlwaysUs, 50)
	onCluster("wal.append_os_us", percentile(L.walOSUs, 50), "us")
	onCluster("wal.append_always_us", walAlwaysUs, "us")
	onCluster("wal.bytes_per_tx", per(float64(L.walBytes), sampledBatches*float64(w.txPerBatch)), "B")
	onCluster("wal.syncs_per_batch", per(float64(L.walSyncs), sampledBatches), "count")
	onCluster("raft.commit_ms_p50", percentile(L.raftMs, 50), "ms")
	onCluster("raft.commit_ms_p99", percentile(L.raftMs, 99), "ms")
	onCluster("tcpnet.commit_ms_p50", percentile(L.tcpMs, 50), "ms")
	onCluster("memnet.msgs_per_batch", per(float64(L.msgs), float64(len(L.raftMs))), "count")
	onCluster("raft.term_changes", float64(L.termChanges+res.TermChanges), "count")
	onCluster("flowctl.admit_ns", L.admit.nsPer(), "ns")
	shed, retries, deduped := 0.0, 0.0, 0.0
	if cs, ok := r.sys.(*clusterSystem); ok {
		for name, v := range cs.cl.Flow().Counters().Snapshot() {
			switch name {
			case "shed-breaker", "shed-inflight", "shed-rate":
				shed += float64(v)
			case "retries":
				retries += float64(v)
			}
		}
		for i := 0; i < cs.cl.Size(); i++ {
			deduped += float64(cs.cl.ReplicaAt(i).Deduped())
		}
	}
	onCluster("flowctl.shed", shed, "count")
	onCluster("flowctl.retries", retries, "count")

	// replica: the executor as the apply loop sees it, and what is left of a
	// client's wait once consensus and execution are taken out.
	batchP50 := percentile(win.latMs, 50)
	execP50 := percentile(live.wallMs, 50)
	inPath := percentile(L.raftMs, 50) + (L.seqEncode.usPer()+L.seqDecode.usPer()+walAlwaysUs)/1e3
	onCluster("replica.exec_ms_p50", execP50, "ms")
	onCluster("replica.ack_gap_ms_p50", batchP50-inPath-execP50, "ms")
	onCluster("replica.snapshot_ms", L.snapshotMs, "ms")
	onCluster("replica.snapshot_mb", L.snapshotMB, "MB")
	onCluster("replica.deduped", deduped, "count")
	onCluster("replica.recover_s", recovery.Seconds(), "s")
	onCluster("cluster.unexplained_frac", 1-per(inPath+execP50, batchP50), "frac")

	// proc: the Go runtime over the timed window.
	res.set("proc.alloc_kb_per_tx", per(float64(after.TotalAlloc-win.before.TotalAlloc)/1024, committed), "KB")
	res.set("proc.allocs_per_tx", per(float64(after.Mallocs-win.before.Mallocs), committed), "count")
	res.set("proc.gc_pause_ms", float64(after.PauseTotalNs-win.before.PauseTotalNs)/1e6, "ms")
	res.set("proc.gc_cycles", float64(after.NumGC-win.before.NumGC), "count")

	res.set("trace_overhead_frac", 1-per(float64(L.plain), float64(L.traced)), "frac")
}
