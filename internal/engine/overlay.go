package engine

import (
	"prognosticator/internal/lang"
	"prognosticator/internal/locktable"
	"prognosticator/internal/store"
	"prognosticator/internal/value"
)

// Overlay buffers a transaction's writes on top of a base view and
// optionally guards accesses against the predicted key-set. Buffering gives
// atomicity (nothing reaches the store until Flush) and the guard implements
// OLLP-style validation: an access outside the locked key-set means the
// prediction was stale, so the transaction must abort — without having
// published any effect and without reading unlocked (hence racy) state.
// It implements lang.KV and is shared with the Calvin baseline.
//
// The engine keeps one overlay per execution frame and resets it between
// transactions, so its maps and lists are allocated once per worker; what
// leaves an overlay (Footprints) is a copy.
type Overlay struct {
	base lang.KV
	// writes holds buffered effects; order preserves first-write order.
	writes map[value.Encoded]overlayWrite
	order  []value.Encoded
	// guard, when guarded is set, holds every key the transaction may touch,
	// mapped to whether it may also write it.
	guard    map[value.Encoded]bool
	guarded  bool
	violated bool
	// With recording on, seen and reads log the first base read of each key
	// (reads served from the transaction's own buffered writes are not
	// observations of committed state and are skipped).
	recording bool
	seen      map[value.Encoded]bool
	reads     []Access
}

type overlayWrite struct {
	key     value.Key
	val     value.Value
	deleted bool
}

// NewOverlay returns an overlay reading through to base.
func NewOverlay(base lang.KV) *Overlay {
	o := &Overlay{}
	o.reset(base)
	return o
}

// reset empties the overlay for the next transaction, keeping its maps and
// lists, and points it at base.
func (o *Overlay) reset(base lang.KV) {
	if o.writes == nil {
		o.writes = map[value.Encoded]overlayWrite{}
	}
	clear(o.writes)
	clear(o.order)
	clear(o.guard)
	clear(o.seen)
	clear(o.reads)
	*o = Overlay{base: base, writes: o.writes, order: o.order[:0], guard: o.guard, seen: o.seen, reads: o.reads[:0]}
}

// Guard restricts reads to reads ∪ writes and writes to the write set.
func (o *Overlay) Guard(reads, writes []value.Key) {
	o.startGuard(len(reads) + len(writes))
	for _, k := range reads {
		o.guard[k.Encode()] = false
	}
	for _, k := range writes { // after the reads: a key in both may be written
		o.guard[k.Encode()] = true
	}
}

// guardLocks is Guard from a lock-request list, which is the same
// information deduplicated: reads ∪ writes with the write bit.
func (o *Overlay) guardLocks(keys []locktable.LockKey) {
	o.startGuard(len(keys))
	for _, lk := range keys {
		o.guard[lk.Key] = lk.Write
	}
}

func (o *Overlay) startGuard(n int) {
	if o.guard == nil {
		o.guard = make(map[value.Encoded]bool, n)
	}
	clear(o.guard)
	o.guarded = true
}

// Violated reports whether any access fell outside the guard sets.
func (o *Overlay) Violated() bool { return o.violated }

// Get implements lang.KV. After a guard violation every read returns
// not-found so execution completes deterministically without observing
// unlocked state.
func (o *Overlay) Get(k value.Key) (value.Value, bool) {
	e := k.Encode()
	if o.violated {
		return value.Value{}, false
	}
	if o.guarded {
		if _, ok := o.guard[e]; !ok {
			o.violated = true
			return value.Value{}, false
		}
	}
	if w, ok := o.writes[e]; ok {
		if w.deleted {
			return value.Value{}, false
		}
		return w.val, true
	}
	v, ok := o.base.Get(k)
	if o.recording && !o.seen[e] {
		o.seen[e] = true
		a := Access{Key: string(e)}
		if ok {
			a.Val = Fingerprint(v)
		}
		o.reads = append(o.reads, a)
	}
	return v, ok
}

// Record enables footprint logging: the first base read of every key and, at
// Footprints time, the final buffered write per key.
func (o *Overlay) Record() {
	o.recording = true
	if o.seen == nil {
		o.seen = map[value.Encoded]bool{}
	}
}

// Footprints returns the recorded read observations (first read per key, in
// read order) and the final write per key (in first-write order). Both nil
// unless Record was called. The slices are the caller's.
func (o *Overlay) Footprints() (reads, writes []Access) {
	if !o.recording {
		return nil, nil
	}
	writes = make([]Access, 0, len(o.order))
	for _, e := range o.order {
		w := o.writes[e]
		a := Access{Key: string(e)}
		if !w.deleted {
			a.Val = Fingerprint(w.val)
		}
		writes = append(writes, a)
	}
	return append([]Access(nil), o.reads...), writes
}

// Fingerprint returns a short stable fingerprint of a value, used to match a
// read observation to the write that produced it without retaining whole
// values in recorded histories: the FNV-1a hash of the value's String form,
// as 16 hex digits.
func Fingerprint(v value.Value) string {
	s := v.String()
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	const digits = "0123456789abcdef"
	var hex [16]byte
	for i := len(hex) - 1; i >= 0; i-- {
		hex[i] = digits[h&0xf]
		h >>= 4
	}
	return string(hex[:])
}

// write buffers one effect, subject to the guard.
func (o *Overlay) write(k value.Key, w overlayWrite) {
	e := k.Encode()
	if o.violated {
		return
	}
	if o.guarded && !o.guard[e] {
		o.violated = true
		return
	}
	if _, ok := o.writes[e]; !ok {
		o.order = append(o.order, e)
	}
	o.writes[e] = w
}

// Put implements lang.KV.
func (o *Overlay) Put(k value.Key, v value.Value) { o.write(k, overlayWrite{key: k, val: v}) }

// Delete implements lang.KV.
func (o *Overlay) Delete(k value.Key) { o.write(k, overlayWrite{key: k, deleted: true}) }

// Flush publishes the buffered writes to the store in first-write order.
// Callers flush only after a violation-free execution and while still
// holding the transaction's locks.
func (o *Overlay) Flush(w *store.WriteView) {
	for _, e := range o.order {
		wr := o.writes[e]
		if wr.deleted {
			w.Delete(wr.key)
		} else {
			w.Put(wr.key, wr.val)
		}
	}
}
