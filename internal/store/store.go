// Package store implements the replica data store: a sharded, multi-version
// key/value store with batch-epoch granularity. The paper runs on RocksDB;
// this substitute provides the two properties the deterministic engine
// actually relies on: (i) key-granular GET/PUT and (ii) stable snapshots —
// read-only transactions and the prepare-indirect-keys phase read the state
// as of the end of the previous batch, while update transactions read and
// write the current batch's state (§III-C).
//
// A resident key costs a slot in its shard's map, which holds the key's
// version chain inline, and the bytes of the key's encoding; its row costs
// the value's block (see package value). The store adds no heap object of
// its own per key. GC visits only the keys on each shard's dirty list —
// those with history or a tombstone — never the whole map.
package store

import (
	"slices"
	"sync"

	"prognosticator/internal/value"
)

// shardCount is a power of two; keys spread across shards by hash.
const shardCount = 64

// Store is a multi-version key/value store. Versions are stamped with batch
// epochs: epoch 0 is the populated initial state, and each executed batch
// advances the epoch by one. All methods are safe for concurrent use.
type Store struct {
	shards [shardCount]shard
	mu     sync.Mutex // guards epoch
	epoch  uint64
}

type shard struct {
	mu    sync.RWMutex
	items map[value.Encoded]chain
	// dirty lists the key of every chain GC can change: those with more
	// than one version or with a tombstone as their only one. A chain enters
	// on the write that makes it so and leaves in the GC that finds it with
	// one live version (or removes it), so GC never looks at the rest of
	// items.
	dirty []value.Encoded
}

// chain is the version history of one key, held in the shard's map itself.
// The newest version is inline, so a key written once — nearly every key —
// costs its map slot and no object of its own.
type chain struct {
	version           // the newest
	older   []version // the rest, ascending by epoch; nil for most keys
	dirty   bool      // on the shard's dirty list
}

// version is the value of a key from an epoch on, or a tombstone: the key
// does not exist from that epoch on. The tombstone mark shares a word with
// the epoch; a flag of its own would push chain into the next size class.
type version struct {
	stamp uint64 // epoch<<1, plus 1 for a tombstone
	val   value.Value
}

func newVersion(epoch uint64, v value.Value, tombstone bool) version {
	ver := version{stamp: epoch << 1, val: v}
	if tombstone {
		ver.stamp |= 1
	}
	return ver
}

func (v version) epoch() uint64   { return v.stamp >> 1 }
func (v version) tombstone() bool { return v.stamp&1 != 0 }

// New returns an empty store at epoch 0.
func New() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].items = make(map[value.Encoded]chain)
	}
	return s
}

// shardFor picks the shard by FNV-1a (32 bit) of the encoding.
func (s *Store) shardFor(e value.Encoded) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(e); i++ {
		h = (h ^ uint32(e[i])) * 16777619
	}
	return &s.shards[h&(shardCount-1)]
}

// at returns the value of the key visible at the given epoch: that of the
// newest version with version.epoch <= epoch. found is false if there is no
// such version or it is a tombstone.
func (c *chain) at(epoch uint64) (v value.Value, found bool) {
	if c.epoch() <= epoch {
		return c.val, !c.tombstone()
	}
	for i := len(c.older) - 1; i >= 0; i-- {
		if ver := c.older[i]; ver.epoch() <= epoch {
			return ver.val, !ver.tombstone()
		}
	}
	return value.Value{}, false
}

// Epoch returns the current batch epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// BeginEpoch advances to the next batch epoch and returns it. The engine
// calls it once per batch; writes of the batch are stamped with the returned
// epoch, and snapshot reads of the batch use epoch-1.
func (s *Store) BeginEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	return s.epoch
}

// Put writes v for k at the given epoch. Writing twice at one epoch
// overwrites (conflicting transactions within a batch are serialized by the
// lock table, so the last write in queue order wins, deterministically).
func (s *Store) Put(epoch uint64, k value.Key, v value.Value) {
	s.putVersion(k, newVersion(epoch, v, false))
}

// Delete removes k at the given epoch (a tombstone version).
func (s *Store) Delete(epoch uint64, k value.Key) {
	s.putVersion(k, newVersion(epoch, value.Value{}, true))
}

func (s *Store) putVersion(k value.Key, ver version) {
	e := k.Encode()
	sh := s.shardFor(e)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c, ok := sh.items[e]
	switch {
	case !ok:
		c = chain{version: ver}
	case c.epoch() == ver.epoch():
		c.version = ver
	default:
		c.older = append(c.older, c.version)
		c.version = ver
	}
	if !c.dirty && (len(c.older) > 0 || ver.tombstone()) {
		c.dirty = true
		sh.dirty = append(sh.dirty, e)
	}
	sh.items[e] = c
}

// Get returns the value of k visible at the given epoch: the newest version
// with version.epoch <= epoch. found is false if no such version exists or
// it is a tombstone.
func (s *Store) Get(epoch uint64, k value.Key) (value.Value, bool) {
	e := k.Encode()
	sh := s.shardFor(e)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.items[e]
	if !ok {
		return value.Value{}, false
	}
	return c.at(epoch)
}

// GC drops versions that no reader at epoch >= keepFrom can observe: for
// each key, all but the newest version with epoch <= keepFrom, plus every
// newer version, are retained. Tombstones that become the oldest retained
// version are dropped entirely. It visits the dirty chains only; a chain
// that still has history or a tombstone afterwards stays listed, so a later
// call finishes the job without the key being written again.
func (s *Store) GC(keepFrom uint64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		kept := sh.dirty[:0]
		for _, e := range sh.dirty {
			c := sh.items[e]
			if c.epoch() <= keepFrom {
				c.older = nil
			} else {
				idx := -1 // newest older version <= keepFrom
				for j, v := range c.older {
					if v.epoch() > keepFrom {
						break
					}
					idx = j
				}
				if idx > 0 {
					c.older = slices.Delete(c.older, 0, idx)
				}
			}
			switch {
			case len(c.older) > 0:
				kept = append(kept, e)
				sh.items[e] = c
			case c.tombstone():
				delete(sh.items, e)
			default:
				c.dirty = false
				sh.items[e] = c
			}
		}
		clear(sh.dirty[len(kept):]) // let go of the keys that left
		sh.dirty = kept
		sh.mu.Unlock()
	}
}

// Len returns the number of live keys at the current epoch.
func (s *Store) Len() int {
	n := 0
	s.ForEach(s.Epoch(), func(value.Encoded, value.Value) { n++ })
	return n
}

// StateHash returns an order-independent hash of the live state at the
// given epoch. Two replicas that executed the same batches must produce
// identical hashes — the determinism check used throughout the tests and by
// internal/replica.
func (s *Store) StateHash(epoch uint64) uint64 {
	var acc uint64
	s.ForEach(epoch, func(e value.Encoded, v value.Value) { acc += e.Hash()*31 + v.Hash() })
	return acc
}

// Restore replaces the entire store contents with items, flattening every
// pair to a single version at epoch 1 and setting the current epoch to 1.
// Used when installing a snapshot: StateHash is content-only, so a restored
// replica hashes identically to one that executed every batch even though
// their epoch counters differ.
func (s *Store) Restore(items map[value.Encoded]value.Value) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.items = make(map[value.Encoded]chain)
		sh.dirty = nil // every chain below is one live version
		sh.mu.Unlock()
	}
	for e, v := range items {
		sh := s.shardFor(e)
		sh.mu.Lock()
		sh.items[e] = chain{version: newVersion(1, v, false)}
		sh.mu.Unlock()
	}
	s.mu.Lock()
	s.epoch = 1
	s.mu.Unlock()
}

// ForEach calls fn for every live (key, value) pair at the given epoch.
// Iteration order is unspecified. fn must not call back into the store.
func (s *Store) ForEach(epoch uint64, fn func(k value.Encoded, v value.Value)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for e, c := range sh.items {
			if v, ok := c.at(epoch); ok {
				fn(e, v)
			}
		}
		sh.mu.RUnlock()
	}
}
