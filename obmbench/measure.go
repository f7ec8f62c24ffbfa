package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// repResult is what one repetition of a path's fixed work measured.
type repResult struct {
	setup     time.Duration   // first call into the system until it takes work
	wall      time.Duration   // the timed phase
	requests  int             // requests served or replayed in the timed phase
	peakHeap  uint64          // peak live heap above the pre-set-up baseline
	ratio     float64         // R-BMA routing cost / oblivious routing cost
	rtts      []time.Duration // batch round trips
	attempted int
	failed    int
	// layers holds the per-layer metrics a traced repetition derives from
	// its own spans and counters.
	layers map[string]float64
}

func (r repResult) mreqs() float64 { return float64(r.requests) / r.wall.Seconds() / 1e6 }

// repCtx is handed to one repetition: its tracer (nil when untraced), a
// fresh scratch directory, and the heap probe the repetition starts right
// before its set-up and stops at the end of its timed phase.
type repCtx struct {
	tr   *tracer
	dir  string
	heap *heapProbe
}

// heapProbe tracks the peak live Go heap from begin to end: the largest
// heap a garbage collection found live. Live bytes, unlike allocated
// bytes, do not swing with when the collector happens to run, so the peak
// is a property of what the system retains — a materialised trace shows
// up, allocation churn does not. The live heap only changes when a
// collection ends, so the probe reads it then, from a finalizer that
// re-arms itself every cycle, rather than polling.
type heapProbe struct {
	base    uint64
	peak    atomic.Uint64
	stopped atomic.Bool
	ended   bool
}

// gcSentinel carries a pointer so that it is not batched by the tiny
// allocator, whose objects' finalizers may never run.
type gcSentinel struct{ h *heapProbe }

func (h *heapProbe) arm() {
	runtime.SetFinalizer(&gcSentinel{h: h}, func(s *gcSentinel) {
		if s.h.stopped.Load() {
			return
		}
		s.h.observe()
		s.h.arm()
	})
}

func (h *heapProbe) observe() {
	live := heapLive()
	for {
		p := h.peak.Load()
		if live <= p || h.peak.CompareAndSwap(p, live) {
			return
		}
	}
}

func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin collects the garbage left by the harness's own input building,
// takes the baseline and arms the probe.
func (rc *repCtx) begin() {
	runtime.GC()
	h := &heapProbe{base: heapLive()}
	h.peak.Store(h.base)
	h.arm()
	rc.heap = h
}

// end disarms the probe, collects once more so that a phase without any
// collection still counts what it retains, and returns the peak above the
// baseline. Repetitions also defer it for their error paths; calls after
// the first return 0.
func (rc *repCtx) end() uint64 {
	h := rc.heap
	if h.ended {
		return 0
	}
	h.ended = true
	h.stopped.Store(true)
	runtime.GC()
	h.observe()
	if p := h.peak.Load(); p > h.base {
		return p - h.base
	}
	return 0
}

// newRepDir makes a fresh scratch directory for one repetition: the
// service deduplicates identical grids onto cached results, so a reused
// store root would turn a repetition into a cache hit.
func newRepDir(root string, n int) (string, error) {
	dir := filepath.Join(root, "rep"+strconv.Itoa(n))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// quantile returns the q-quantile of xs with linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqm is the interquartile mean of xs: the mean of the middle half once
// the lowest and the highest quarter are dropped (xs is sorted in place).
// Like a median it ignores a stalled repetition, but where repetitions
// fall into two modes it moves smoothly with their mix, while a median
// jumps from one mode to the other.
func iqm(xs []float64) float64 {
	sort.Float64s(xs)
	k := len(xs) / 4
	mid := xs[k : len(xs)-k]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// each maps reps through f.
func each(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}
