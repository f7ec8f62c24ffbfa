package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"obm/internal/report"
	"obm/internal/sim"
)

// The HTTP/JSON API. All job-scoped routes key on the job id, which is
// the run's full SHA-256 spec hash:
//
//	GET  /healthz                      liveness + queue counters
//	GET  /metrics                      Prometheus text exposition
//	POST /api/v1/jobs                  submit a ScenarioSpec JSON list
//	GET  /api/v1/jobs                  list all jobs
//	GET  /api/v1/jobs/{id}             one job's status
//	GET  /api/v1/jobs/{id}/events      SSE progress stream
//	GET  /api/v1/jobs/{id}/summary.csv rendered summary (done jobs)
//	GET  /api/v1/jobs/{id}/report.md   rendered Markdown report (done jobs)
//	GET  /api/v1/jobs/{id}/curves.json aggregated cost-curve points (done jobs)
//
// Fleet-worker routes (the coordinator/worker protocol; see lease.go and
// internal/work — the coordinator's local workers make the same three
// calls in process):
//
//	POST /api/v1/jobs/{id}/lease               claim a shard lease ({"worker": name};
//	                                           200 Lease, 204 nothing to lease)
//	POST /api/v1/jobs/{id}/shards/{k}/heartbeat renew a lease + report progress
//	                                           ({"token","done"}; 409 = lease lost)
//	POST /api/v1/jobs/{id}/shards/{k}/complete upload the shard's job log
//	                                           (?token=&worker=&failed=; body = log)
//	GET  /api/v1/jobs/{id}/shards              shard/lease states, for operators

// Handler returns the service's HTTP handler, ready to mount on an
// http.Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.withJob(s.handleStatus))
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.withJob(s.serveEvents))
	mux.HandleFunc("GET /api/v1/jobs/{id}/summary.csv", s.withJob(s.artifact("summary.csv", "text/csv; charset=utf-8")))
	mux.HandleFunc("GET /api/v1/jobs/{id}/report.md", s.withJob(s.artifact("report.md", "text/markdown; charset=utf-8")))
	mux.HandleFunc("GET /api/v1/jobs/{id}/curves.json", s.withJob(s.handleCurves))
	mux.HandleFunc("POST /api/v1/jobs/{id}/lease", s.withJob(s.handleLease))
	mux.HandleFunc("POST /api/v1/jobs/{id}/shards/{k}/heartbeat", s.withShard(s.handleHeartbeat))
	mux.HandleFunc("POST /api/v1/jobs/{id}/shards/{k}/complete", s.withShard(s.handleComplete))
	mux.HandleFunc("GET /api/v1/jobs/{id}/shards", s.withJob(s.handleShards))
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var queued, running, done, failed int
	for _, st := range s.Jobs() {
		switch st.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		case StateDone:
			done++
		case StateFailed:
			failed++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"queued":  queued,
		"running": running,
		"done":    done,
		"failed":  failed,
	})
}

// handleSubmit accepts the same ScenarioSpec JSON list `experiments grid
// -scenarios` reads. Responses: 200 with cached=true when the identical
// grid already finished, 202 when it is queued or running (first
// submission or duplicate), 400 on invalid specs, 429 when the queue is
// full, 503 during shutdown.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	specs, err := sim.ReadScenarios(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, err := s.Submit(specs)
	switch {
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrStorage):
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	case err != nil: // invalid specs (manifest/plan validation)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusAccepted
	if st.Cached {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

// withJob resolves the {id} path segment to a job, 404ing unknown ids.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.lookup(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		h(w, r, j)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, j *job) {
	writeJSON(w, http.StatusOK, j.status())
}

// requireDone gates artifact endpoints: artifacts exist only for finished
// jobs (409 otherwise, with the job's status in the body so clients can
// poll the same URL).
func requireDone(w http.ResponseWriter, j *job) bool {
	st := j.status()
	if st.State == StateDone {
		return true
	}
	writeJSON(w, http.StatusConflict, st)
	return false
}

// artifact serves a rendered file from the job's store directory,
// re-rendering on demand when it is missing (a previous process may have
// completed the grid but died before rendering).
func (s *Server) artifact(name, contentType string) func(http.ResponseWriter, *http.Request, *job) {
	return func(w http.ResponseWriter, r *http.Request, j *job) {
		if !requireDone(w, j) {
			return
		}
		path := filepath.Join(j.dir, name)
		if _, err := os.Stat(path); err != nil {
			if rerr := s.renderJob(j); rerr != nil {
				httpError(w, http.StatusInternalServerError, "rendering %s: %v", name, rerr)
				return
			}
		}
		w.Header().Set("Content-Type", contentType)
		http.ServeFile(w, r, path)
	}
}

// withShard additionally resolves the {k} shard-index path segment.
func (s *Server) withShard(h func(http.ResponseWriter, *http.Request, *job, int)) http.HandlerFunc {
	return s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		k, err := strconv.Atoi(r.PathValue("k"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad shard index %q", r.PathValue("k"))
			return
		}
		h(w, r, j, k)
	})
}

// handleLease grants a shard lease: 200 with the Lease body, 204 when
// the job has nothing to lease, 400 for a worker name the local workers
// reserve, 503 during shutdown.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request, j *job) {
	var req struct {
		Worker string `json:"worker"`
	}
	if r.Body != nil {
		json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req)
	}
	if req.Worker == "" {
		req.Worker = r.RemoteAddr
	}
	if strings.HasPrefix(req.Worker, localWorkerPrefix) {
		httpError(w, http.StatusBadRequest, "worker names starting with %q are reserved for the coordinator's local workers", localWorkerPrefix)
		return
	}
	l, err := s.lease(j, req.Worker)
	switch {
	case errors.Is(err, ErrNoLease):
		w.WriteHeader(http.StatusNoContent)
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, l)
}

// handleHeartbeat renews a shard lease: 200 with the refreshed TTL, 409
// when the lease was requeued or completed under the worker.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request, j *job, k int) {
	var req struct {
		Token string `json:"token"`
		Done  int    `json:"done"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ttl, err := s.heartbeat(j, k, req.Token, req.Done)
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"ttl_ms": ttl.Milliseconds()})
}

// handleComplete absorbs an uploaded shard log (the request body is the
// shard store's jobs.log, wal frames). 200 with the job's status on
// success; 409 on an exact-agreement conflict (the job is then failed —
// identical seeds must mean identical costs); 400 on a bad upload (torn
// or corrupt — the shard re-runs, the job keeps going); 500 on a
// server-side storage failure (the job keeps running; the worker may
// retry).
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request, j *job, k int) {
	q := r.URL.Query()
	st, err := s.completeShard(j, k, q.Get("token"), q.Get("worker"), q.Get("failed"),
		http.MaxBytesReader(w, r.Body, 256<<20))
	switch {
	case errors.Is(err, ErrStorage):
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	case errors.Is(err, report.ErrOutcomeConflict):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleShards reports the job's shard lease states: every shard from
// submission on, pending before its first lease. A finished job recovered
// from an earlier process has no shard table and lists none.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request, j *job) {
	shards := s.shardStatuses(j)
	if shards == nil {
		shards = []ShardStatus{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "shards": shards})
}

// handleCurves serves the job's aggregated cost-curve points: one entry
// per (scenario, alg, b) cell, averaged over repetitions.
func (s *Server) handleCurves(w http.ResponseWriter, r *http.Request, j *job) {
	if !requireDone(w, j) {
		return
	}
	store, err := report.Open(j.dir)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer store.Close()
	curves, err := store.CellCurves()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"curves": curves})
}
