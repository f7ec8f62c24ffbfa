package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"obm/internal/report"
	"obm/internal/sim"
	"obm/internal/wal"
)

// The coordinator side of distributed grid execution.
//
// A job's grid is partitioned into ceil(total/ShardSize) modulo shards —
// the same static partition sim.GridOptions.Shard/Shards executes and
// report.Merge folds, so a shard's log is an ordinary run-store log.
// Lease consumers — fleet workers over HTTP, the coordinator's own local
// workers in process — drain the shards through three verbs:
//
//	lease      claim a pending shard; the response carries everything a
//	           worker needs to rebuild the shard's manifest (specs,
//	           curve points, shard layout) and verify the spec hash
//	heartbeat  keep the lease alive and report in-flight progress;
//	           a lost lease answers ErrLeaseLost so the worker aborts
//	complete   upload the shard's job log; the coordinator absorbs it
//	           into the job's own store, which it holds open
//
// A lease that misses its TTL is requeued — the worker is presumed dead
// and another worker re-runs the shard from scratch. That makes delivery
// at-least-once: the same grid job can be executed (and uploaded) twice.
// Correctness survives because job outcomes are pure functions of their
// identity and absorption verifies exact agreement on every duplicate
// record (report.Store.Absorb): a re-run either reproduces the recorded
// costs bit-for-bit or the job fails loudly. The merged summary is
// therefore byte-identical to a single-process run regardless of worker
// count, crashes, or duplicate completions.
//
// A job's shard table is planned when its store is created or opened
// (attach), so it exists, and /shards lists it, before the first lease.
// Lease state lives in memory and is journaled in the job's lease WAL
// from the first lease on (see wal.go); the shard logs absorbed into the
// job's store remain the durable truth for outcomes.

// shardPhase is a leasable shard's lifecycle state.
type shardPhase string

const (
	shardPending shardPhase = "pending"
	shardLeased  shardPhase = "leased"
	shardDone    shardPhase = "done"
)

// shardState tracks one leasable shard of a job.
type shardState struct {
	phase    shardPhase
	jobs     []sim.GridJob // the shard's slice of the plan, for exactness checks
	token    string
	worker   string
	expires  time.Time
	done     int // worker-reported in-flight progress (persisted-but-not-uploaded)
	attempts int // leases granted, including requeues
}

// distJob is a job's lease bookkeeping, planned with its store (attach).
type distJob struct {
	shards   []shardState
	recorded int // jobs in the coordinator's store at the last absorb
	// journaled is set once the first lease has created the lease WAL
	// (or recovery reopened it); a WAL a failed append disabled stays off.
	journaled bool
}

// Lease is the coordinator's answer to a successful shard-lease request:
// the shard's identity plus everything needed to execute it. The worker
// rebuilds the shard manifest from Name/Specs/CurvePoints and must
// verify its spec hash equals JobID before running.
type Lease struct {
	JobID       string             `json:"job_id"`
	Shard       int                `json:"shard"`
	Shards      int                `json:"shards"`
	Jobs        int                `json:"jobs"` // grid jobs in this shard
	Token       string             `json:"token"`
	TTLMS       int64              `json:"ttl_ms"`
	Name        string             `json:"name"`
	CurvePoints int                `json:"curve_points"`
	Specs       []sim.ScenarioSpec `json:"specs"`
}

// ShardStatus is the JSON shape of one shard's lease state, returned by
// the shards endpoint for operators watching a job drain. Worker names
// the holder of a leased shard: a fleet worker, or local/N for the
// coordinator's own local workers.
type ShardStatus struct {
	Index     int    `json:"index"`
	State     string `json:"state"`
	Jobs      int    `json:"jobs"`
	Done      int    `json:"done,omitempty"`
	Worker    string `json:"worker,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`
	ExpiresAt string `json:"expires_at,omitempty"`
}

// ErrLeaseLost is returned by heartbeats whose lease has expired and been
// requeued (or completed by another worker); the HTTP layer maps it to
// 409 so the worker stops burning CPU on a shard it no longer owns.
var ErrLeaseLost = errors.New("serve: lease lost")

// ErrNoLease reports that a job has no shard to lease right now (all
// leased or done, or the job is terminal); the HTTP layer maps it to 204
// No Content.
var ErrNoLease = errors.New("serve: nothing to lease")

// newToken mints an unguessable lease token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: reading random lease token: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// attach hands a queued job its open store and the shard table planned
// from it: shards whose every job the store already records (a recovered
// partial grid, an earlier failed run) start out done instead of being
// re-executed. It runs right after the store is created or opened.
func (s *Server) attach(j *job, store *report.Store) {
	plan := store.Plan()
	n := max(1, (len(plan.Jobs)+s.opt.ShardSize-1)/s.opt.ShardSize)
	shards := make([]shardState, n)
	for k := range shards {
		shards[k] = shardState{phase: shardPending, jobs: plan.ShardSlice(k, n)}
		if recordedAll(store, shards[k].jobs) {
			shards[k].phase = shardDone
		}
	}
	j.mu.Lock()
	j.store = store
	j.dist = &distJob{shards: shards, recorded: store.Len()}
	j.done = j.dist.recorded
	j.mu.Unlock()
}

// journalInit creates the job's lease WAL and journals the table's init
// record, once: on the job's first lease. It reports whether it did.
func (s *Server) journalInit(j *job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dist == nil || j.dist.journaled || j.state == StateDone || j.state == StateFailed {
		return false
	}
	j.dist.journaled = true
	lg, err := wal.Create(filepath.Join(j.dir, leaseWALFile))
	if err != nil {
		s.opt.Logf("serve: job %.12s: lease WAL disabled: %v", j.id, err)
		return false
	}
	j.wal = lg
	s.walAppend(j, walRecInit(len(j.dist.shards), j.dist.recorded))
	return j.wal != nil
}

// recordedAll reports whether store holds an outcome for every job.
func recordedAll(store *report.Store, jobs []sim.GridJob) bool {
	for _, gj := range jobs {
		if _, ok := store.Lookup(gj); !ok {
			return false
		}
	}
	return true
}

// reapExpired requeues every leased shard whose TTL lapsed and refreshes
// the job's progress counter. Called with j.mu held; returns the indices
// requeued (for logging outside the lock via logRequeued).
func (j *job) reapExpired(now time.Time) []int {
	if j.dist == nil {
		return nil
	}
	var requeued []int
	for k := range j.dist.shards {
		sh := &j.dist.shards[k]
		if sh.phase == shardLeased && sh.expires.Before(now) {
			sh.phase = shardPending
			sh.token = ""
			sh.worker = ""
			sh.done = 0
			requeued = append(requeued, k)
		}
	}
	if len(requeued) > 0 {
		j.done = j.fleetDone()
	}
	return requeued
}

// logRequeued reports and counts reaped leases, wakes idle local workers
// to take the shards over, and marks the persistence boundary of their
// requeue records; call it after releasing j.mu.
func (s *Server) logRequeued(j *job, requeued []int) {
	if len(requeued) == 0 {
		return
	}
	s.met.leasesExpired.Add(uint64(len(requeued)))
	for _, k := range requeued {
		s.opt.Logf("serve: job %.12s shard %d lease expired — requeued", j.id, k)
	}
	s.wakeWorkers()
	s.crashAt(crashPostRequeue)
}

// leased reports whether any shard of j is leased. Called with j.mu held.
func (j *job) leased() bool {
	if j.dist == nil {
		return false
	}
	for k := range j.dist.shards {
		if j.dist.shards[k].phase == shardLeased {
			return true
		}
	}
	return false
}

// fleetDone recomputes the job's progress counter from the absorbed
// record count plus every in-flight lease's reported progress, clamped
// to the grid size: a shard re-run after a partial upload re-executes
// jobs the store already absorbed, so the naive sum can overshoot.
// Called with j.mu held.
func (j *job) fleetDone() int {
	done := j.dist.recorded
	for k := range j.dist.shards {
		if j.dist.shards[k].phase == shardLeased {
			done += j.dist.shards[k].done
		}
	}
	return min(done, j.total)
}

// lease grants a pending shard of j to worker — a fleet worker or one of
// the coordinator's local workers, which call it alike. The first lease
// of a job starts its lease WAL (journalInit), and the first grant moves
// it to running. Returns ErrNoLease when the job has nothing to lease,
// ErrClosed during shutdown.
func (s *Server) lease(j *job, worker string) (Lease, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return Lease{}, ErrClosed
	}
	if s.journalInit(j) {
		s.crashAt(crashPostInit)
	}

	now := time.Now()
	j.mu.Lock()
	if j.dist == nil || j.state == StateDone || j.state == StateFailed {
		// The job is finished, or its store is still being created or
		// reopened.
		j.mu.Unlock()
		return Lease{}, ErrNoLease
	}
	requeued := j.reapExpired(now)
	s.walRequeues(j, requeued)
	var grant *shardState
	var index int
	for k := range j.dist.shards {
		if j.dist.shards[k].phase == shardPending {
			grant, index = &j.dist.shards[k], k
			break
		}
	}
	if grant == nil {
		allDone := true
		for k := range j.dist.shards {
			if j.dist.shards[k].phase != shardDone {
				allDone = false
				break
			}
		}
		j.mu.Unlock()
		s.logRequeued(j, requeued)
		if allDone {
			// Every shard was already recorded when the table was
			// planned from the store — e.g. a job that failed at the
			// render step and was resubmitted. No upload will ever arrive
			// to trigger the terminal path, so finish it here.
			s.finishJob(j, s.renderJob(j))
		}
		return Lease{}, ErrNoLease
	}
	j.state = StateRunning
	grant.phase = shardLeased
	grant.token = newToken()
	grant.worker = worker
	grant.expires = now.Add(s.opt.LeaseTTL)
	grant.done = 0
	grant.attempts++
	attempt := grant.attempts
	s.walAppend(j, walRecLease(index, grant))
	m := j.manifest
	l := Lease{
		JobID:       j.id,
		Shard:       index,
		Shards:      len(j.dist.shards),
		Jobs:        len(grant.jobs),
		Token:       grant.token,
		TTLMS:       s.opt.LeaseTTL.Milliseconds(),
		Name:        m.Name,
		CurvePoints: m.CurvePoints,
		Specs:       m.Specs,
	}
	j.mu.Unlock()
	s.logRequeued(j, requeued)
	s.crashAt(crashPostLease)
	s.met.leasesGranted.Inc()
	s.opt.Logf("serve: job %.12s shard %d/%d leased to %s (%d grid jobs, attempt %d)",
		j.id, index, l.Shards, worker, l.Jobs, attempt)
	j.publish()
	return l, nil
}

// heartbeat renews a shard lease and records the worker's in-flight
// progress. Returns the renewed TTL, or ErrLeaseLost when the lease was
// requeued or completed under the worker.
func (s *Server) heartbeat(j *job, shard int, token string, done int) (time.Duration, error) {
	j.mu.Lock()
	if j.dist == nil || shard < 0 || shard >= len(j.dist.shards) {
		j.mu.Unlock()
		return 0, ErrLeaseLost
	}
	requeued := j.reapExpired(time.Now())
	s.walRequeues(j, requeued)
	sh := &j.dist.shards[shard]
	if sh.phase != shardLeased || sh.token != token {
		j.mu.Unlock()
		s.logRequeued(j, requeued)
		return 0, ErrLeaseLost
	}
	sh.expires = time.Now().Add(s.opt.LeaseTTL)
	if done > sh.done {
		sh.done = done
	}
	s.walAppend(j, walRecHeartbeat(shard, sh))
	j.done = j.fleetDone()
	j.mu.Unlock()
	s.logRequeued(j, requeued)
	s.crashAt(crashPostHeartbeat)
	s.met.heartbeats.Inc()
	j.publish()
	return s.opt.LeaseTTL, nil
}

// completeShard absorbs an uploaded shard log into the job's store and,
// when the upload proves the shard fully recorded, marks it done; when
// every grid job is recorded the job renders and finishes. Uploads are
// accepted regardless of lease validity — a worker whose lease expired
// mid-upload still carries valid outcomes, and exact-agreement absorption
// makes duplicates safe — so completion is idempotent. failMsg, when
// non-empty, reports a worker-side execution failure: the partial log is
// still absorbed and the shard requeues for another attempt.
func (s *Server) completeShard(j *job, shard int, token, worker, failMsg string, log io.Reader) (Status, error) {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		// The job already reached a terminal state: the upload is moot.
		j.mu.Unlock()
		return j.status(), nil
	}
	if j.dist == nil || shard < 0 || shard >= len(j.dist.shards) {
		j.mu.Unlock()
		return Status{}, fmt.Errorf("serve: job %.12s has no leased shard %d", j.id, shard)
	}
	// The store and the shard's job slice are fixed while the job is
	// live; snapshot them so the absorb runs outside j.mu.
	store := j.store
	shardJobs := j.dist.shards[shard].jobs
	j.mu.Unlock()

	// Absorb into the store the job holds open: decoding the upload
	// takes no lock, checking and appending its records one store lock,
	// so concurrent hand-ins need no lock of their own.
	added, aerr := store.Absorb(log)
	var serr error
	if aerr == nil {
		serr = store.Sync()
	}
	s.met.absorbedRecords.Add(uint64(added))
	switch {
	case serr != nil || errors.Is(aerr, report.ErrClosed):
		// An infrastructure failure (disk, permissions, a store closed
		// by the job's end or a shutdown) is not a correctness verdict:
		// report it as such and let the worker retry; the job keeps its
		// state.
		return Status{}, fmt.Errorf("%w: job %.12s shard %d: %v", ErrStorage, j.id, shard, errors.Join(aerr, serr))
	case aerr == nil:
	case errors.Is(aerr, report.ErrOutcomeConflict):
		// A conflicting outcome is not noise — identical seeds must
		// mean identical costs. Fail the job loudly; resubmission
		// re-enqueues it with the store intact.
		s.met.absorbConflicts.Inc()
		s.finishJob(j, fmt.Errorf("absorbing shard %d from %s: %w", shard, worker, aerr))
		return Status{}, aerr
	default:
		// Anything else (a torn body from a worker that died
		// mid-upload, a corrupt or foreign record) invalidates only
		// this upload, never the job: every record absorbed before the
		// bad one is already durable, the shard stays leased until its
		// TTL reaps it, and a re-run re-delivers the rest.
		s.met.uploadsRejected.Inc()
		s.opt.Logf("serve: job %.12s shard %d: rejected upload from %s after %d records: %v", j.id, shard, worker, added, aerr)
		return Status{}, fmt.Errorf("serve: job %.12s shard %d: bad upload: %w", j.id, shard, aerr)
	}

	// The upload is durable in the store; its WAL record comes next. A
	// crash here is exactly the window the WAL may lag the store by —
	// recovery reconciles every shard against the store, which already
	// holds these records.
	s.crashAt(crashPostStoreAbsorb)

	var terminal, requeued bool
	var crash crashPoint
	j.mu.Lock()
	if j.store == store { // still the live job this upload was absorbed into
		// Read the store under j.mu, right before journaling: its count
		// only grows, so concurrent hand-ins journal it in order.
		recorded := store.Len()
		missing, _ := store.Missing() // never fails: the plan is fixed at open
		sh := &j.dist.shards[shard]
		owns := sh.phase == shardLeased && sh.token == token
		switch {
		case recordedAll(store, shardJobs):
			// The store now holds the whole shard: done, whoever the
			// upload came from. A superseded leaseholder learns via its
			// next heartbeat (lease lost) and stands down. Only an actual
			// transition is journaled — replay rejects duplicate dones.
			if sh.phase != shardDone {
				s.met.shardsCompleted.Inc()
				sh.phase = shardDone
				sh.token, sh.worker, sh.done = "", "", 0
				s.walAppend(j, walRecShardDone(shard, recorded))
				crash = crashPostComplete
			}
		case owns:
			// The current leaseholder failed, stopped or under-delivered:
			// its partial work is absorbed, the shard requeues for another
			// attempt.
			sh.phase = shardPending
			sh.token, sh.worker, sh.done = "", "", 0
			s.walAppend(j, walRecAbsorb(shard, recorded))
			crash = crashPostAbsorb
			requeued = true
		default:
			// A stale partial upload from an expired lease: the absorbed
			// records still count, but the shard's current owner keeps
			// its lease undisturbed.
			if added > 0 {
				s.walAppend(j, walRecAbsorb(-1, recorded))
				crash = crashPostAbsorb
			}
		}
		j.dist.recorded = recorded
		j.done = j.fleetDone()
		terminal = len(missing) == 0
	}
	j.mu.Unlock()
	if crash != "" {
		s.crashAt(crash)
	}
	if requeued {
		s.wakeWorkers()
	}

	if failMsg != "" {
		s.opt.Logf("serve: job %.12s shard %d failed on %s (%s) — absorbed %d jobs, requeued", j.id, shard, worker, failMsg, added)
	} else {
		s.opt.Logf("serve: job %.12s shard %d complete from %s (+%d jobs, %d/%d recorded)", j.id, shard, worker, added, store.Len(), j.total)
	}
	if terminal {
		s.finishJob(j, s.renderJob(j))
	} else {
		j.publish()
	}
	return j.status(), nil
}

// renderJob writes a job's summary.csv and report.md: from the store a
// live job holds, or, for a finished job, from its store opened afresh.
func (s *Server) renderJob(j *job) error {
	j.mu.Lock()
	store := j.store
	j.mu.Unlock()
	if store == nil {
		var err error
		if store, err = report.Open(j.dir); err != nil {
			return err
		}
		defer store.Close()
	}
	_, _, err := store.Render()
	return err
}

// shardStatuses snapshots a job's lease state for the shards endpoint.
// Only a job with no shard table (recovered done, or its store still
// being created) has none.
func (s *Server) shardStatuses(j *job) []ShardStatus {
	j.mu.Lock()
	if j.dist == nil {
		j.mu.Unlock()
		return nil
	}
	// Requeues noticed by a status poll are journaled and count too.
	reaped := j.reapExpired(time.Now())
	s.walRequeues(j, reaped)
	out := make([]ShardStatus, len(j.dist.shards))
	for k := range j.dist.shards {
		sh := &j.dist.shards[k]
		out[k] = ShardStatus{
			Index:    k,
			State:    string(sh.phase),
			Jobs:     len(sh.jobs),
			Done:     sh.done,
			Worker:   sh.worker,
			Attempts: sh.attempts,
		}
		if sh.phase == shardLeased {
			out[k].ExpiresAt = sh.expires.UTC().Format(time.RFC3339)
		}
	}
	j.mu.Unlock()
	s.logRequeued(j, reaped)
	return out
}
