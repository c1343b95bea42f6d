package profile

import (
	"container/list"
	"encoding/json"
	"sync"

	"prognosticator/internal/metrics"
	"prognosticator/internal/value"
)

// DirectMemo caches the results of InstantiateDirect per (transaction,
// inputs). The direct part of a pivot-free DT's key-set is a pure function
// of the inputs — no store state is read — so a cached key-set is valid
// forever and can be shared: benchmark workloads draw inputs from small
// domains (hot items, a fixed warehouse set), making repeats common, and the
// same entry serves both the dispatcher's client-side prediction at submit
// time and the engine's preparation phase.
//
// The cache is a bounded LRU. Cached key-sets are shared read-only; callers
// must not mutate them (InstantiateSplit copies the keys into its own result).
// Instantiation errors are never cached.
type DirectMemo struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	counters *metrics.CounterSet
}

type memoEntry struct {
	key string
	ks  *KeySet
}

// NewDirectMemo returns a memo holding at most capacity entries (minimum 1).
// counters, when non-nil, receives "direct_memo_hit", "direct_memo_miss" and
// "direct_memo_evict" increments.
func NewDirectMemo(capacity int, counters *metrics.CounterSet) *DirectMemo {
	if capacity < 1 {
		capacity = 1
	}
	return &DirectMemo{
		capacity: capacity,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		counters: counters,
	}
}

// Len returns the number of cached entries.
func (m *DirectMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

func (m *DirectMemo) count(name string) {
	if m.counters != nil {
		m.counters.Add(name, 1)
	}
}

// memoKey canonicalizes (txName, inputs) into a cache key. Go's JSON encoder
// writes map keys in sorted order, so structurally equal input maps always
// produce the same key.
func memoKey(txName string, inputs map[string]value.Value) (string, bool) {
	b, err := json.Marshal(inputs)
	if err != nil {
		return "", false
	}
	return txName + "\x00" + string(b), true
}

// InstantiateDirect returns p.InstantiateDirect(inputs), serving repeats
// from the cache. The returned key-set is shared: treat it as immutable.
func (m *DirectMemo) InstantiateDirect(p *Profile, inputs map[string]value.Value) (*KeySet, error) {
	key, ok := memoKey(p.TxName, inputs)
	if !ok {
		return p.InstantiateDirect(inputs)
	}
	m.mu.Lock()
	if el, hit := m.entries[key]; hit {
		m.order.MoveToFront(el)
		ks := el.Value.(*memoEntry).ks
		m.mu.Unlock()
		m.count("direct_memo_hit")
		return ks, nil
	}
	m.mu.Unlock()
	ks, err := p.InstantiateDirect(inputs)
	m.count("direct_memo_miss")
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if _, dup := m.entries[key]; !dup {
		m.entries[key] = m.order.PushFront(&memoEntry{key: key, ks: ks})
		if m.order.Len() > m.capacity {
			last := m.order.Back()
			m.order.Remove(last)
			delete(m.entries, last.Value.(*memoEntry).key)
			m.count("direct_memo_evict")
		}
	}
	m.mu.Unlock()
	return ks, nil
}
