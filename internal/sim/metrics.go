package sim

import (
	"time"

	"obm/internal/obs"
)

// Metrics aggregates replay observability for the grid layer: request and
// chunk throughput, completed jobs, and checkpoint save/load latency.
// Every field is optional and a nil *Metrics disables instrumentation
// entirely — the replay hot loops call the nil-safe hooks below, which
// cost one predictable branch when metrics are off and one atomic add (or
// mutexed histogram record, at chunk granularity, never per request) when
// on. Hooks never touch cost math, so instrumented replays stay
// bit-identical to bare ones.
type Metrics struct {
	Requests *obs.Counter   // requests replayed (counted per fed chunk)
	Chunks   *obs.Counter   // trace chunks fed
	Jobs     *obs.Counter   // grid jobs executed to completion
	SaveNS   *obs.Histogram // checkpoint serialize+store time (ns)
	LoadNS   *obs.Histogram // checkpoint load+restore time (ns)
}

// NewMetrics registers the standard obm_grid_* series on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Requests: r.Counter("obm_grid_requests_total", "Requests replayed by grid jobs."),
		Chunks:   r.Counter("obm_grid_chunks_total", "Trace chunks replayed by grid jobs."),
		Jobs:     r.Counter("obm_grid_jobs_total", "Grid jobs executed to completion (cache hits excluded)."),
		SaveNS:   r.Histogram("obm_grid_checkpoint_save_seconds", "Replay checkpoint serialize+store time.", 1e-9),
		LoadNS:   r.Histogram("obm_grid_checkpoint_load_seconds", "Replay checkpoint load+restore time.", 1e-9),
	}
}

// chunkFed records one fed chunk of n requests.
func (m *Metrics) chunkFed(n int) {
	if m == nil {
		return
	}
	if m.Requests != nil {
		m.Requests.Add(uint64(n))
	}
	if m.Chunks != nil {
		m.Chunks.Inc()
	}
}

// jobDone records one executed grid job.
func (m *Metrics) jobDone() {
	if m == nil || m.Jobs == nil {
		return
	}
	m.Jobs.Inc()
}

// saveTimed records one checkpoint save.
func (m *Metrics) saveTimed(d time.Duration) {
	if m == nil || m.SaveNS == nil {
		return
	}
	m.SaveNS.ObserveDuration(d)
}

// loadTimed records one checkpoint load attempt (including rejected
// blobs — a slow failed load is still operator-relevant).
func (m *Metrics) loadTimed(d time.Duration) {
	if m == nil || m.LoadNS == nil {
		return
	}
	m.LoadNS.ObserveDuration(d)
}
