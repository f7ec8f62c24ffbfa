// Package work is the fleet-worker side of distributed grid execution:
// a Runner connects to an experiment-service coordinator (internal/serve,
// `experiments serve`), leases shards of submitted grids over HTTP, and
// drains them cooperatively with every other worker on the same
// coordinator.
//
// A leased shard runs through serve.RunShard, the shard executor the
// coordinator's own local workers use too: it rebuilds the shard's
// manifest from the lease (and refuses to run unless its spec hash
// reproduces the job id), executes the shard's job slice against a shard
// run store, heartbeats to keep the lease alive and report progress, and
// hands the store's job log in, which the coordinator folds into the
// job's own store under exact-agreement conflict checks. This package
// supplies the HTTP side of those calls: heartbeats, and uploads retried
// across coordinator restarts.
//
// A shard store starts in memory and is written under Options.Dir,
// keyed by (job, shard), once its shard outlives the first heartbeat
// tick (a third of the lease TTL) or ends without a clean upload, so a
// worker that crashes or is cancelled mid-shard resumes its own partial
// log the next time it leases the same shard — and if a *different*
// worker re-runs the shard instead, determinism makes the duplicate
// upload verify bit-for-bit. Workers are therefore disposable: kill any
// of them at any time and the grid still merges to a summary
// byte-identical to a single-process run; a worker killed within a
// shard's first tick just re-runs what it had done of it. A shard store
// whose upload the coordinator accepted is dropped, or deleted without
// an fsync if it reached the disk, since the coordinator fsyncs the
// records it absorbs before it answers; any other is written out,
// fsynced and kept for a later lease of its shard.
package work

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"obm/internal/obs"
	"obm/internal/serve"
	"obm/internal/sim"
)

// Options configures a Runner.
type Options struct {
	// Coordinator is the base URL of the experiment service (required),
	// e.g. "http://10.0.0.5:8080".
	Coordinator string
	// Name identifies this worker in coordinator logs and lease state
	// (default "<hostname>-<pid>"). Names starting with "local/" are
	// reserved for the coordinator's own workers.
	Name string
	// Capacity is the number of shard leases executed concurrently
	// (default 1). Each shard internally parallelizes per GridWorkers.
	Capacity int
	// Dir is where a shard's run store is written once the shard outlives
	// its first heartbeat tick, or ends without a clean upload (default
	// "work"). A store left behind is resumed when this worker re-leases
	// the same shard.
	Dir string
	// GridWorkers sizes the sim worker pool inside each shard run
	// (default GOMAXPROCS).
	GridWorkers int
	// CheckpointEvery, when > 0, checkpoints each in-flight grid job's
	// algorithm state to the shard store roughly every that many requests
	// (sim.GridOptions.CheckpointEvery), so a killed worker that re-leases
	// the same shard resumes inside partially replayed jobs instead of
	// restarting them. The store holds each job's newest checkpoint in
	// memory until it is written out, so only a shard that outlives its
	// first heartbeat tick keeps checkpoints on disk. Checkpoints are
	// local to this worker's shard store; a different worker re-running
	// the shard replays from the last completed job, and determinism keeps
	// the outcomes identical.
	CheckpointEvery int
	// Poll is how long to wait between lease attempts when the
	// coordinator has nothing to lease (default 2s).
	Poll time.Duration
	// HTTPClient overrides the HTTP client (default http.DefaultClient).
	HTTPClient *http.Client
	// Logf, when non-nil, receives one line per lease/shard state change.
	Logf func(format string, args ...any)
	// Registry, when non-nil, is where the worker registers its
	// obm_work_* and obm_grid_* metrics (nil gets a private registry).
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.Capacity <= 0 {
		o.Capacity = 1
	}
	if o.Dir == "" {
		o.Dir = "work"
	}
	if o.Poll <= 0 {
		o.Poll = 2 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Runner is a fleet worker. Create with New, drive with Run.
type Runner struct {
	opt Options
	reg *obs.Registry
	met workerMetrics
	sim *sim.Metrics // obm_grid_* instruments for leased-shard replays

	// workloads holds, per job this worker is draining, the specs its
	// leases carried and the workloads their shard runs share, so the
	// worker sets each scenario up once per job, not once per shard.
	// acquire drops the jobs the coordinator no longer lists as queued
	// or running.
	mu        sync.Mutex
	workloads map[string]jobWorkloads
}

// jobWorkloads is one job's entry in Runner.workloads.
type jobWorkloads struct {
	specs []sim.ScenarioSpec
	w     *sim.Workloads
}

// New validates opt and builds a Runner.
func New(opt Options) (*Runner, error) {
	if opt.Coordinator == "" {
		return nil, fmt.Errorf("work: Options.Coordinator is required")
	}
	opt = opt.withDefaults()
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Runner{
		opt: opt, reg: reg, met: newWorkerMetrics(reg), sim: sim.NewMetrics(reg),
		workloads: map[string]jobWorkloads{},
	}, nil
}

// Run leases and executes shards until ctx is cancelled, then waits for
// in-flight shards to abort at their next chunk boundary (their local
// stores stay resumable) and returns the number of shards it completed
// and uploaded. Transient coordinator errors (connection refused during
// a restart, 5xx) are retried on the poll interval, so a fleet can start
// before its coordinator.
func (r *Runner) Run(ctx context.Context) (completed int, err error) {
	slots := make(chan struct{}, r.opt.Capacity)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	r.opt.Logf("work: %s draining %s (capacity %d)", r.opt.Name, r.opt.Coordinator, r.opt.Capacity)
	for ctx.Err() == nil {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		lease, lerr := r.acquire(ctx)
		if lerr != nil || lease == nil {
			<-slots
			if lerr != nil {
				r.opt.Logf("work: lease attempt: %v", lerr)
			}
			select {
			case <-time.After(r.opt.Poll):
			case <-ctx.Done():
			}
			continue
		}
		r.met.leases.Inc()
		wg.Add(1)
		go func(l serve.Lease) {
			defer wg.Done()
			defer func() { <-slots }()
			if r.runShard(ctx, l) {
				mu.Lock()
				completed++
				mu.Unlock()
			}
		}(*lease)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return completed, nil
}

// acquire asks the coordinator for one shard lease: it lists the jobs
// and tries to lease each candidate until one answers 200. A nil lease
// with nil error means there is nothing to drain right now.
func (r *Runner) acquire(ctx context.Context) (*serve.Lease, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opt.Coordinator+"/api/v1/jobs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.opt.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("work: listing jobs: HTTP %d", resp.StatusCode)
	}
	var list struct {
		Jobs []serve.Status `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("work: decoding job list: %w", err)
	}
	r.pruneStaleShardDirs(list.Jobs)
	r.pruneWorkloads(list.Jobs)
	for _, st := range list.Jobs {
		if st.State != serve.StateQueued && st.State != serve.StateRunning {
			continue
		}
		lease, err := r.tryLease(ctx, st.ID)
		if err != nil {
			return nil, err
		}
		if lease != nil {
			return lease, nil
		}
	}
	return nil, nil
}

// tryLease POSTs one lease request; nil without error on 204/409-class
// answers (nothing to lease on that job).
func (r *Runner) tryLease(ctx context.Context, jobID string) (*serve.Lease, error) {
	body, _ := json.Marshal(map[string]string{"worker": r.opt.Name})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		r.opt.Coordinator+"/api/v1/jobs/"+jobID+"/lease", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.opt.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var l serve.Lease
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			return nil, fmt.Errorf("work: decoding lease: %w", err)
		}
		return &l, nil
	case http.StatusNoContent, http.StatusConflict, http.StatusServiceUnavailable, http.StatusNotFound:
		return nil, nil
	default:
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("work: lease %s: HTTP %d: %s", jobID[:12], resp.StatusCode, blob)
	}
}

// shardDir names the local store for (job, shard) — stable across
// restarts, so a re-leased shard resumes this worker's own partial log.
func (r *Runner) shardDir(l serve.Lease) string {
	return filepath.Join(r.opt.Dir, fmt.Sprintf("%.16s-shard%d", l.JobID, l.Shard))
}

// pruneStaleShardDirs removes leftover shard stores whose job is done:
// an abandoned or lease-lost shard keeps its local log for a possible
// resume, but once the grid finished elsewhere that resume can never be
// asked for, and without pruning a long-lived worker's Dir grows
// without bound. Failed jobs keep their dirs — a resubmission re-leases
// their shards and the partial logs are a head start.
func (r *Runner) pruneStaleShardDirs(jobs []serve.Status) {
	entries, err := os.ReadDir(r.opt.Dir)
	if err != nil {
		return
	}
	done := make(map[string]bool, len(jobs))
	for _, st := range jobs {
		if st.State == serve.StateDone && len(st.ID) >= 16 {
			done[st.ID[:16]] = true
		}
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || len(name) < 17 {
			continue
		}
		if prefix, rest, ok := strings.Cut(name, "-shard"); ok && rest != "" && done[prefix] {
			os.RemoveAll(filepath.Join(r.opt.Dir, name))
			r.opt.Logf("work: pruned stale shard store %s (job finished)", name)
		}
	}
}

// pruneWorkloads drops the workloads of every job the listing does not
// show as queued or running: a finished job leases nothing more, and a
// failed one that is resubmitted gets a fresh entry on its next lease.
func (r *Runner) pruneWorkloads(jobs []serve.Status) {
	live := make(map[string]bool, len(jobs))
	for _, st := range jobs {
		if st.State == serve.StateQueued || st.State == serve.StateRunning {
			live[st.ID] = true
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := range r.workloads {
		if !live[id] {
			delete(r.workloads, id)
		}
	}
}

// jobWorkloadsFor returns the workloads the shards of l's job share. An
// entry made for other specs is replaced: a lease whose specs do not
// hash to its job id is refused by serve.RunShard, and must not leave
// an entry that fails the job's next, valid lease.
func (r *Runner) jobWorkloadsFor(l serve.Lease) *sim.Workloads {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.workloads[l.JobID]
	if !ok || !reflect.DeepEqual(e.specs, l.Specs) {
		e = jobWorkloads{specs: l.Specs, w: sim.NewWorkloads(l.Specs)}
		r.workloads[l.JobID] = e
	}
	return e.w
}

// runShard executes one lease end to end through serve.RunShard; true
// means the shard's log was uploaded after a clean run. A shard whose
// lease was lost is abandoned with its store intact; a failed shard
// uploads its partial log with the failure message, and a stopped one
// hands its partial log off, so the coordinator requeues either without
// waiting for the TTL.
func (r *Runner) runShard(ctx context.Context, l serve.Lease) bool {
	res := serve.RunShard(ctx, serve.ShardRun{
		Lease: l,
		Dir:   r.shardDir(l),
		Grid: sim.GridOptions{
			Workers:         r.opt.GridWorkers,
			CheckpointEvery: r.opt.CheckpointEvery,
			Metrics:         r.sim,
			Workloads:       r.jobWorkloadsFor(l),
		},
		Heartbeat: func(ctx context.Context, done int) error { return r.heartbeat(ctx, l, done) },
		Complete: func(ctx context.Context, log []byte, failMsg string) error {
			return r.upload(ctx, l, log, failMsg)
		},
		Logf: func(format string, args ...any) {
			r.opt.Logf("work: %s "+format, append([]any{r.opt.Name}, args...)...)
		},
	})
	switch {
	case res.Outcome == serve.ShardNotRun:
		r.opt.Logf("work: shard %d of job %.12s: %v", l.Shard, l.JobID, res.RunErr)
	case res.Outcome == serve.ShardLeaseLost:
		// Another worker owns the shard now. The local log is kept (a
		// future lease of the same shard resumes it); if both upload,
		// determinism makes the duplicate verify.
		r.opt.Logf("work: %s lost the lease on shard %d of job %.12s — aborted at a chunk boundary", r.opt.Name, l.Shard, l.JobID)
	case res.CompleteErr != nil:
		r.met.uploadErrors.Inc()
		r.opt.Logf("work: uploading shard %d of job %.12s: %v (local log kept)", l.Shard, l.JobID, res.CompleteErr)
	case res.Outcome == serve.ShardHandedOff:
		// Whoever re-leases the shard resumes past the absorbed jobs; if
		// it is this worker, also from its own mid-job checkpoints.
		r.met.handoffs.Inc()
		r.opt.Logf("work: %s handed off shard %d of job %.12s (%d jobs absorbed; shard requeued)",
			r.opt.Name, l.Shard, l.JobID, res.Recorded)
	case res.Outcome == serve.ShardFailed:
		r.opt.Logf("work: %s reported shard %d of job %.12s failed: %v", r.opt.Name, l.Shard, l.JobID, res.RunErr)
	default:
		r.met.shardsCompleted.Inc()
		r.opt.Logf("work: %s completed shard %d/%d of job %.12s (%d grid jobs)", r.opt.Name, l.Shard, l.Shards, l.JobID, l.Jobs)
		return true
	}
	return false
}

// heartbeat renews the lease, reporting done as progress. A 409 means
// the lease was requeued under us: serve.ErrLeaseLost.
func (r *Runner) heartbeat(ctx context.Context, l serve.Lease, done int) error {
	body, _ := json.Marshal(map[string]any{"token": l.Token, "done": done})
	url := fmt.Sprintf("%s/api/v1/jobs/%s/shards/%d/heartbeat", r.opt.Coordinator, l.JobID, l.Shard)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.opt.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		r.met.heartbeats.Inc()
		return nil
	case http.StatusConflict:
		r.met.leaseLost.Inc()
		return serve.ErrLeaseLost
	}
	return fmt.Errorf("work: heartbeat: HTTP %d", resp.StatusCode)
}

// uploadAttempts bounds the complete-endpoint retry loop; with the
// doubling backoff below (200ms base) the last attempt lands ~12s after
// the first — comfortably past a coordinator restart.
const uploadAttempts = 6

// upload POSTs log, the shard's job-log image, to the complete
// endpoint. The request is detached from the worker's shutdown
// cancellation (with its own timeout): the shard's compute is already
// paid for, so a worker told to stop right as a shard finishes still
// delivers it instead of abandoning a completed log.
//
// Transport errors and 5xx answers retry with doubling backoff — that is
// exactly what a coordinator mid-restart looks like (connection refused,
// then 503, then a recovered lease table). Client-class answers are
// final: a coordinator that *judged* the upload and rejected it will not
// change its mind on a resend.
func (r *Runner) upload(ctx context.Context, l serve.Lease, log []byte, failMsg string) error {
	uploadCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Minute)
	defer cancel()
	q := neturl.Values{"token": {l.Token}, "worker": {r.opt.Name}}
	if failMsg != "" {
		q.Set("failed", failMsg)
	}
	url := fmt.Sprintf("%s/api/v1/jobs/%s/shards/%d/complete?%s", r.opt.Coordinator, l.JobID, l.Shard, q.Encode())

	backoff := 200 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < uploadAttempts; attempt++ {
		if attempt > 0 {
			r.met.uploadRetries.Inc()
			r.opt.Logf("work: retrying upload of shard %d of job %.12s in %v: %v", l.Shard, l.JobID, backoff, lastErr)
			select {
			case <-uploadCtx.Done():
				return lastErr
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		req, err := http.NewRequestWithContext(uploadCtx, http.MethodPost, url, bytes.NewReader(log))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := r.opt.HTTPClient.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		lastErr = fmt.Errorf("work: complete: HTTP %d: %s", resp.StatusCode, msg)
		if resp.StatusCode < http.StatusInternalServerError {
			return lastErr
		}
	}
	return lastErr
}
