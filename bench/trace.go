package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark makes into a layer. Spans are kept in
// memory and written out when the run ends; Parent links a span to the span
// that caused it and Batch is shared by all spans of one batch.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // 0 = root
	Batch  int    `json:"batch"`
}

// tracer records spans. A nil tracer records nothing, so call sites are the
// same in traced and untraced runs; every span still measures its duration,
// which is what the per-layer metrics are made of.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type openSpan struct {
	tr     *tracer
	id     int
	name   string
	parent int
	batch  int
	start  time.Time
}

func (t *tracer) start(name string, parent, batch int) openSpan {
	s := openSpan{tr: t, name: name, parent: parent, batch: batch, start: time.Now()}
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, span{})
		s.id = len(t.spans)
		t.mu.Unlock()
	}
	return s
}

// end closes the span and returns its duration.
func (s openSpan) end() time.Duration {
	now := time.Now()
	if t := s.tr; t != nil {
		t.mu.Lock()
		t.spans[s.id-1] = span{ID: s.id, Name: s.name, Start: s.start.Sub(t.t0).Nanoseconds(),
			End: now.Sub(t.t0).Nanoseconds(), Parent: s.parent, Batch: s.batch}
		t.mu.Unlock()
	}
	return now.Sub(s.start)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// per divides, reading an empty denominator as "the layer was not exercised".
func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}
