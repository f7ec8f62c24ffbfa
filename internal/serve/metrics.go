package serve

import (
	"obm/internal/obs"
	"obm/internal/sim"
)

// serverMetrics are the coordinator-wide obm_serve_* series. Updates are
// single atomic adds at the lifecycle points they name; queue depth and
// jobs-by-state are derived at scrape time by the collector below, so
// they can never drift from the jobs map they describe.
type serverMetrics struct {
	submissions     *obs.Counter // valid Submit calls (dedup hits included)
	cacheHits       *obs.Counter // submissions answered from a finished store
	leasesGranted   *obs.Counter // shard leases handed to fleet and local workers
	leasesExpired   *obs.Counter // leases reaped past their TTL (requeues)
	heartbeats      *obs.Counter // successful lease renewals
	shardsCompleted *obs.Counter // shards proven fully recorded by an upload
	absorbConflicts *obs.Counter // exact-agreement violations (job-fatal)
	absorbedRecords *obs.Counter // grid-job records folded in from uploads
	uploadsRejected *obs.Counter // malformed/truncated shard uploads
	sseSubscribers  *obs.Gauge   // open SSE event streams

	walAppends         *obs.Counter // lease-WAL records appended
	walReplayed        *obs.Counter // lease-WAL records replayed at recovery
	walRecoveredLeases *obs.Counter // live leases re-armed from a replayed WAL
	walDiscarded       *obs.Counter // lease WALs discarded (corrupt or stale)
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		submissions:     r.Counter("obm_serve_submissions_total", "Valid grid submissions (including duplicates deduped onto live jobs)."),
		cacheHits:       r.Counter("obm_serve_cache_hits_total", "Submissions answered from an already-finished store."),
		leasesGranted:   r.Counter("obm_serve_leases_granted_total", "Shard leases granted to fleet and local workers."),
		leasesExpired:   r.Counter("obm_serve_leases_expired_total", "Shard leases reaped past their TTL and requeued."),
		heartbeats:      r.Counter("obm_serve_heartbeats_total", "Successful shard-lease renewals."),
		shardsCompleted: r.Counter("obm_serve_shards_completed_total", "Shards proven fully recorded by an absorbed upload."),
		absorbConflicts: r.Counter("obm_serve_absorb_conflicts_total", "Shard uploads rejected for exact-agreement outcome conflicts."),
		absorbedRecords: r.Counter("obm_serve_absorbed_records_total", "Grid-job records absorbed from shard uploads."),
		uploadsRejected: r.Counter("obm_serve_uploads_rejected_total", "Malformed or truncated shard uploads rejected."),
		sseSubscribers:  r.Gauge("obm_serve_sse_subscribers", "Open SSE progress streams."),

		walAppends:         r.Counter("obm_serve_wal_appends_total", "Lease-state records appended to per-job WALs."),
		walReplayed:        r.Counter("obm_serve_wal_replayed_records_total", "Lease-WAL records replayed during crash recovery."),
		walRecoveredLeases: r.Counter("obm_serve_wal_recovered_leases_total", "Live shard leases re-armed from a replayed WAL."),
		walDiscarded:       r.Counter("obm_serve_wal_discarded_total", "Lease WALs discarded at recovery (corrupt, stale, or mismatched)."),
	}
}

// collect derives queue depth and jobs-by-state at scrape time. Every
// state is always emitted (zero included) so dashboards see stable
// series from the first scrape.
func (s *Server) collect(x *obs.Exposition) {
	counts := map[State]int{StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0}
	for _, st := range s.Jobs() {
		counts[st.State]++
	}
	x.Gauge("obm_serve_queue_depth", "Jobs queued with no shard leased yet (the -queue bound applies to these).", float64(counts[StateQueued]))
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed} {
		x.Gauge("obm_serve_jobs", "Known jobs by lifecycle state.", float64(counts[st]),
			obs.Label{Key: "state", Value: string(st)})
	}
}

// Registry returns the server's metrics registry (the one serving
// GET /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// GridMetrics returns the obm_grid_* instruments wired into the local
// workers' shard runs, for callers embedding the server.
func (s *Server) GridMetrics() *sim.Metrics { return s.sim }
