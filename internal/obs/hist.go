package obs

import (
	"sync"
	"time"

	"obm/internal/stats"
)

// Histogram is a concurrency-safe wrapper around the fixed-array log2
// histogram in internal/stats — the single histogram implementation in
// the repo. Observe takes one mutex and writes into a fixed array: no
// per-sample allocation, cheap enough for per-batch paths (the engine
// records one sample per ingest batch, not per request).
//
// Values are recorded in whatever unit the caller chooses (nanoseconds
// for latencies, raw counts for sizes); the exposition scale passed to
// Registry.Histogram converts on the way out.
type Histogram struct {
	mu sync.Mutex
	h  stats.Histogram
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.mu.Lock()
	h.h.Record(v)
	h.mu.Unlock()
}

// ObserveDuration records a duration as nanoseconds (negative clamps to
// zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Summary is a point-in-time digest of a histogram: count, extrema, mean
// and upper quantiles. All value fields are in recorded units.
type Summary struct {
	Count uint64
	Min   uint64
	Max   uint64
	Mean  float64
	P50   uint64
	P90   uint64
	P99   uint64
	P999  uint64
}

// Summary digests the current distribution. It locks out writers only
// for four bucket scans over a fixed array — fine at scrape frequency.
func (h *Histogram) Summary() Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Summary{
		Count: h.h.Count(),
		Min:   h.h.Min(),
		Max:   h.h.Max(),
		Mean:  h.h.Mean(),
		P50:   h.h.Quantile(0.5),
		P90:   h.h.Quantile(0.9),
		P99:   h.h.Quantile(0.99),
		P999:  h.h.Quantile(0.999),
	}
}
