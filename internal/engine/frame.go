package engine

import (
	"sync"

	"prognosticator/internal/lang"
)

// frame is what executing one transaction needs and the next can reuse: the
// interpreter's state (the slot array of parameters and locals, the
// read/write lists) and the write-buffering overlay with its guard. Whatever must
// outlive the execution is copied out of it — see DESIGN.md, "Transaction
// hot path: ownership and reuse".
type frame struct {
	run lang.Frame
	ov  Overlay
}

// overlay returns the frame's overlay, emptied and reading through to base.
func (f *frame) overlay(base lang.KV) *Overlay {
	f.ov.reset(base)
	return &f.ov
}

// frameList is the engine's free list of frames: one per goroutine that
// executes at the same time, so Workers + 1 at most. It is a plain list, not
// a sync.Pool: a pool empties on every collection cycle, and the point of a
// frame is to have been grown already.
type frameList struct {
	mu   sync.Mutex
	free []*frame
	// fresh makes every get build a new frame and every put drop it: the
	// reference the reuse tests compare against (export_test.go).
	fresh bool
}

func (l *frameList) get() *frame {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 && !l.fresh {
		f := l.free[n-1]
		l.free = l.free[:n-1]
		return f
	}
	return &frame{}
}

func (l *frameList) put(f *frame) {
	if l.fresh {
		return
	}
	l.mu.Lock()
	l.free = append(l.free, f)
	l.mu.Unlock()
}
