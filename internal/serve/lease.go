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
// Fleet workers drain the shards through three verbs:
//
//	lease      claim a pending shard; the response carries everything a
//	           worker needs to rebuild the shard's manifest (specs,
//	           curve points, shard layout) and verify the spec hash
//	heartbeat  keep the lease alive and report in-flight progress;
//	           a lost lease answers ErrLeaseLost so the worker aborts
//	complete   upload the shard's jobs.jsonl; the coordinator absorbs it
//	           into the job's own store
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
// Lease state lives in memory but is journaled: every transition appends
// one record to the job's lease WAL (see wal.go), so a restarted
// coordinator replays the journal, re-arms live leases and requeues dead
// ones — a fleet survives a coordinator crash without losing a shard.
// The shard logs absorbed into the job's store remain the durable truth
// for outcomes; a missing or corrupt WAL degrades to re-enqueue-and-
// resume, never to wrong results.

// shardPhase is a leasable shard's lifecycle state.
type shardPhase string

const (
	shardPending shardPhase = "pending"
	shardLeased  shardPhase = "leased"
	shardDone    shardPhase = "done"
)

// shardState tracks one leasable shard of a fleet-claimed job.
type shardState struct {
	phase    shardPhase
	jobs     []sim.GridJob // the shard's slice of the plan, for exactness checks
	token    string
	worker   string
	expires  time.Time
	done     int // worker-reported in-flight progress (persisted-but-not-uploaded)
	attempts int // leases granted, including requeues
}

// distJob is a job's lease bookkeeping, created on the first fleet lease.
type distJob struct {
	shards   []shardState
	recorded int // jobs in the coordinator's store at the last absorb
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
// the shards endpoint for operators watching a fleet drain.
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
// leased or done, or the job is terminal or locally owned); the HTTP
// layer maps it to 204 No Content.
var ErrNoLease = errors.New("serve: nothing to lease")

// newToken mints an unguessable lease token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: reading random lease token: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// initDist plans the job's shard partition and consults the job's store
// so shards whose every job is already recorded (a recovered partial
// grid, an earlier failed local run) start out done instead of being
// re-executed by the fleet. It runs without j.mu (it does disk I/O);
// absorbMu keeps the read-only open from racing a concurrent upload's
// append, whose torn tail Open would otherwise trim away.
func (s *Server) initDist(j *job) error {
	plan, err := j.manifest.Plan()
	if err != nil {
		return err
	}
	n := (len(plan.Jobs) + s.opt.ShardSize - 1) / s.opt.ShardSize
	if n < 1 {
		n = 1
	}
	shards := make([]shardState, n)
	for k := range shards {
		shards[k] = shardState{phase: shardPending, jobs: plan.ShardSlice(k, n)}
	}

	j.absorbMu.Lock()
	store, err := report.Open(j.dir)
	if err != nil {
		j.absorbMu.Unlock()
		return fmt.Errorf("%w: opening store for job %.12s: %v", ErrStorage, j.id, err)
	}
	recorded := store.Len()
	for k := range shards {
		done := true
		for _, gj := range shards[k].jobs {
			if _, ok := store.Lookup(gj); !ok {
				done = false
				break
			}
		}
		if done {
			shards[k].phase = shardDone
		}
	}
	store.Close()

	// Attach the lease table and its journal while still holding absorbMu:
	// two racing initDist calls must not both Create the WAL file (the
	// loser's truncation would orphan the winner's handle). The losing
	// racer re-checks j.dist under j.mu and touches nothing.
	j.mu.Lock()
	journaled := false
	if j.dist == nil { // a concurrent lease may have won the race
		j.dist = &distJob{shards: shards, recorded: recorded}
		j.done = recorded
		if !s.opt.NoLeaseWAL {
			if lg, werr := wal.Create(filepath.Join(j.dir, leaseWALFile)); werr != nil {
				s.opt.Logf("serve: job %.12s: lease WAL disabled: %v", j.id, werr)
			} else {
				j.wal = lg
				s.walAppend(j, walRecInit(len(shards), recorded))
				journaled = j.wal != nil
			}
		}
	}
	j.mu.Unlock()
	j.absorbMu.Unlock()
	if journaled {
		s.crashAt(crashPostInit)
	}
	return nil
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

// logRequeued reports and counts reaped leases; call it after releasing
// j.mu.
func (s *Server) logRequeued(j *job, requeued []int) {
	s.met.leasesExpired.Add(uint64(len(requeued)))
	for _, k := range requeued {
		s.opt.Logf("serve: job %.12s shard %d lease expired — requeued", j.id, k)
	}
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

// lease claims a pending shard of j for worker. The first lease of a
// queued job claims the whole job for the fleet (the local pool skips
// it from then on). Returns ErrNoLease when the job has nothing to
// lease, ErrClosed during shutdown.
func (s *Server) lease(j *job, worker string) (Lease, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Lease{}, ErrClosed
	}
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed || j.claim == claimLocal {
		j.mu.Unlock()
		s.mu.Unlock()
		return Lease{}, ErrNoLease
	}
	if j.claim == claimNone {
		// First fleet touch: claim the job and release its queue slot —
		// the channel entry becomes a ghost the local pool skips.
		j.claim = claimFleet
		j.state = StateRunning
		if !j.dequeued {
			j.dequeued = true
			s.pending--
		}
	}
	needDist := j.dist == nil
	j.mu.Unlock()
	s.mu.Unlock()

	if needDist {
		if err := s.initDist(j); err != nil {
			// A job the fleet cannot plan must not stay stuck "running":
			// hand it back to the local queue — including a fresh channel
			// entry, since the original one may already have been consumed
			// as a ghost while the job was fleet-claimed. (Revert only if
			// no concurrent lease succeeded meanwhile.)
			s.mu.Lock()
			j.mu.Lock()
			if j.claim == claimFleet && j.dist == nil {
				j.claim = claimNone
				j.state = StateQueued
				if j.dequeued {
					j.dequeued = false
					s.pending++
				}
				s.enqueueLocked(j)
			}
			j.mu.Unlock()
			s.mu.Unlock()
			return Lease{}, err
		}
	}

	now := time.Now()
	j.mu.Lock()
	if j.dist == nil {
		// A failed-job resubmission reset the lease state under us.
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
		if len(requeued) > 0 {
			s.crashAt(crashPostRequeue)
		}
		if allDone {
			// Every shard was already recorded when lease state was
			// (re)built — e.g. a job that failed at the render step and
			// was resubmitted. No upload will ever arrive to trigger the
			// terminal path, so finish it here.
			s.finalizeFleetJob(j)
		}
		return Lease{}, ErrNoLease
	}
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
	if len(requeued) > 0 {
		s.crashAt(crashPostRequeue)
	}
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
		if len(requeued) > 0 {
			s.crashAt(crashPostRequeue)
		}
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
	if len(requeued) > 0 {
		s.crashAt(crashPostRequeue)
	}
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
	if j.state == StateDone || j.state == StateFailed || j.claim == claimLocal {
		// The job already reached a terminal state, or the local pool
		// owns it (a stale upload racing a local run must not interleave
		// appends with it): either way the upload is moot — dropping it
		// loses nothing the job's own path will not (or deliberately
		// should not) record.
		j.mu.Unlock()
		return j.status(), nil
	}
	if j.dist == nil || shard < 0 || shard >= len(j.dist.shards) {
		j.mu.Unlock()
		return Status{}, fmt.Errorf("serve: job %.12s has no leased shard %d", j.id, shard)
	}
	// Shard job slices are immutable after initDist; snapshot so the
	// exactness check below survives j.dist being reset concurrently
	// (a failed-job resubmission).
	shardJobs := j.dist.shards[shard].jobs
	j.mu.Unlock()

	// Absorb outside j.mu (disk I/O); absorbMu serializes concurrent
	// uploads for the same job so duplicate detection cannot race. Each
	// upload reopens the store, replaying its log: O(recorded) work per
	// upload. On the fleet-drain benchmark (112 jobs in 4-job shards, a
	// 2-vCPU Xeon) one whole upload takes about 2 ms at the median
	// (serve.complete_ms_p50), and reopening the finished 112-record
	// store about 2 ms (report.open_ms), against about 18 ms of worker
	// time per shard.
	j.absorbMu.Lock()
	store, err := report.Open(j.dir)
	if err != nil {
		j.absorbMu.Unlock()
		return Status{}, fmt.Errorf("%w: opening store for job %.12s: %v", ErrStorage, j.id, err)
	}
	added, aerr := store.Absorb(log)
	var storageErr error
	if aerr == nil {
		storageErr = store.Sync()
	}
	recorded := store.Len()
	shardComplete := false
	missing := -1
	if aerr == nil && storageErr == nil {
		shardComplete = true
		for _, gj := range shardJobs {
			if _, ok := store.Lookup(gj); !ok {
				shardComplete = false
				break
			}
		}
		if m, merr := store.Missing(); merr != nil {
			storageErr = merr
		} else {
			missing = len(m)
		}
	}
	store.Close()
	j.absorbMu.Unlock()
	if storageErr != nil {
		// An infrastructure failure (disk, permissions) is not a
		// correctness verdict: report it as such and let the worker
		// retry; the job keeps running.
		return Status{}, fmt.Errorf("%w: job %.12s shard %d: %v", ErrStorage, j.id, shard, storageErr)
	}
	s.met.absorbedRecords.Add(uint64(added))
	if aerr != nil {
		if errors.Is(aerr, report.ErrOutcomeConflict) {
			// A conflicting outcome is not noise — identical seeds must
			// mean identical costs. Fail the job loudly; resubmission
			// re-enqueues it with the store intact.
			s.met.absorbConflicts.Inc()
			s.finishJob(j, fmt.Errorf("absorbing shard %d from %s: %w", shard, worker, aerr))
			return Status{}, aerr
		}
		// Anything else (a truncated body from a worker that died
		// mid-upload, a malformed or foreign record) invalidates only
		// this upload, never the job: every record absorbed before the
		// bad line is already durable, the shard stays leased until its
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

	var terminal bool
	var crash crashPoint
	j.mu.Lock()
	if j.dist != nil && shard < len(j.dist.shards) {
		sh := &j.dist.shards[shard]
		owns := sh.phase == shardLeased && sh.token == token
		switch {
		case shardComplete:
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
			// The current leaseholder failed or under-delivered: its
			// partial work is absorbed, the shard requeues for another
			// attempt.
			sh.phase = shardPending
			sh.token, sh.worker, sh.done = "", "", 0
			s.walAppend(j, walRecAbsorb(shard, recorded))
			crash = crashPostAbsorb
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
	}
	terminal = missing == 0
	j.mu.Unlock()
	if crash != "" {
		s.crashAt(crash)
	}

	if failMsg != "" {
		s.opt.Logf("serve: job %.12s shard %d failed on %s (%s) — absorbed %d jobs, requeued", j.id, shard, worker, failMsg, added)
	} else {
		s.opt.Logf("serve: job %.12s shard %d complete from %s (+%d jobs, %d/%d recorded)", j.id, shard, worker, added, recorded, j.total)
	}
	if terminal {
		s.finishJob(j, s.renderJob(j))
	} else {
		j.publish()
	}
	return j.status(), nil
}

// finalizeFleetJob finishes a fleet-claimed job whose grid is already
// fully recorded but which no upload will ever complete (all shards
// were done the moment lease state was built). Verifies against the
// store before rendering; finishJob is idempotent for done jobs, so a
// race with a straggling upload's terminal path is benign.
func (s *Server) finalizeFleetJob(j *job) {
	j.mu.Lock()
	ours := j.state == StateRunning && j.claim == claimFleet
	j.mu.Unlock()
	if !ours {
		return
	}
	j.absorbMu.Lock()
	missing := -1
	if store, err := report.Open(j.dir); err == nil {
		if m, merr := store.Missing(); merr == nil {
			missing = len(m)
		}
		store.Close()
	}
	j.absorbMu.Unlock()
	if missing != 0 {
		return // bookkeeping and store disagree; leave it to uploads
	}
	s.finishJob(j, s.renderJob(j))
}

// renderJob renders a completed job's artifacts (under absorbMu so a
// racing upload never reads a half-written store).
func (s *Server) renderJob(j *job) error {
	j.absorbMu.Lock()
	defer j.absorbMu.Unlock()
	return s.render(j)
}

// shardStatuses snapshots a job's lease state for the shards endpoint.
// A job untouched by the fleet has none.
func (s *Server) shardStatuses(j *job) []ShardStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dist == nil {
		return nil
	}
	// Atomic counter adds are safe under j.mu; requeues noticed by a
	// status poll still count.
	if reaped := j.reapExpired(time.Now()); len(reaped) > 0 {
		s.met.leasesExpired.Add(uint64(len(reaped)))
		s.walRequeues(j, reaped)
	}
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
	return out
}
