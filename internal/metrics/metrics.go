// Package metrics provides the small set of measurement utilities the
// benchmark harness needs: latency histograms with percentile queries and
// monotonic counters. Implementations favour determinism and zero
// allocation on the hot path.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Histogram records duration samples with exact storage (the harness deals
// in at most a few hundred thousand samples per run, so keeping them beats
// bucketing error). Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank. It returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(h.samples) {
		rank = len(h.samples)
	}
	return h.samples[rank-1]
}

// Mean returns the arithmetic mean of the samples.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	var m time.Duration
	for _, s := range h.samples {
		if s > m {
			m = s
		}
	}
	return m
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = h.samples[:0]
	h.sorted = false
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v max=%v", h.Count(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Counter is a concurrency-safe monotonic counter.
type Counter struct {
	mu sync.Mutex
	v  int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// CounterSet is a named collection of counters, created on first use. The
// chaos harness and the replica layer use one set per deployment to account
// for faults injected and recoveries performed (kills, restarts, partitions,
// WAL corruptions, deduplicated batches, replayed batches, ...). Safe for
// concurrent use.
type CounterSet struct {
	mu sync.Mutex
	m  map[string]*Counter
}

// NewCounterSet returns an empty set.
func NewCounterSet() *CounterSet {
	return &CounterSet{m: map[string]*Counter{}}
}

// Counter returns the named counter, creating it at zero if needed.
func (s *CounterSet) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.m[name]
	if !ok {
		c = &Counter{}
		s.m[name] = c
	}
	return c
}

// Add increments the named counter by delta.
func (s *CounterSet) Add(name string, delta int64) { s.Counter(name).Add(delta) }

// Value returns the named counter's count (zero if never touched).
func (s *CounterSet) Value(name string) int64 { return s.Counter(name).Value() }

// Snapshot returns a point-in-time copy of every counter.
func (s *CounterSet) Snapshot() map[string]int64 {
	s.mu.Lock()
	names := make([]string, 0, len(s.m))
	for n := range s.m {
		names = append(names, n)
	}
	counters := make([]*Counter, len(names))
	for i, n := range names {
		counters[i] = s.m[n]
	}
	s.mu.Unlock()
	out := make(map[string]int64, len(names))
	for i, n := range names {
		out[n] = counters[i].Value()
	}
	return out
}

// String renders the counters as sorted name=value pairs.
func (s *CounterSet) String() string {
	snap := s.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, snap[n])
	}
	return strings.Join(parts, " ")
}
