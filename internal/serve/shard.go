package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"obm/internal/report"
	"obm/internal/sim"
)

// The shard executor. Every lease consumer runs its shards through
// RunShard: fleet workers (internal/work) reach the coordinator over
// HTTP, the coordinator's local workers call its lease table directly,
// and only the ShardRun callbacks differ. A shard store is an ordinary
// sharded run store, staged in memory until the shard outlives its first
// heartbeat tick or ends on a path that keeps it, so a worker stopped
// mid-shard resumes its own partial log on its next lease of the shard,
// and a different worker re-running it uploads records that determinism
// makes verify.

// ShardRun is one leased shard to execute.
type ShardRun struct {
	Lease Lease
	// Dir is where the shard store is written once the shard outlives
	// its first heartbeat tick or ends on a path that keeps the store,
	// and where a store kept before is resumed. It is stable per (job,
	// shard) so a re-lease resumes it. A shard handed in cleanly within
	// its first tick never creates it.
	Dir string
	// Grid carries the replay knobs (workers, chunk size, checkpoints,
	// metrics); the store sets the rest.
	Grid sim.GridOptions
	// Heartbeat renews the lease every max(TTL/3, 10ms), reporting done,
	// the grid jobs in the shard store. ErrLeaseLost stops the run at
	// its next chunk boundary; other errors are logged and retried on
	// the next tick.
	Heartbeat func(ctx context.Context, done int) error
	// BeatPerJob also heartbeats after every finished grid job.
	BeatPerJob bool
	// Complete hands log, the shard store's job-log image, to the
	// coordinator; failMsg is empty after a clean run. ctx may already be
	// cancelled, and log must not be modified. The records are in memory
	// or in an unsynced file: a nil return must mean the coordinator has
	// made them durable, because the shard store is then deleted.
	Complete func(ctx context.Context, log []byte, failMsg string) error
	// Logf receives the resume notice, heartbeat errors and the errors
	// of writing out, keeping or removing the shard store.
	Logf func(format string, args ...any)
}

// ShardOutcome says how RunShard ended.
type ShardOutcome int

const (
	ShardCompleted ShardOutcome = iota // the clean run's log was handed in
	ShardFailed                        // the grid failed; its partial log was handed in with the error
	ShardHandedOff                     // ctx ended mid-run; the partial log was handed in, so the shard requeues at once
	ShardLeaseLost                     // the lease was revoked; nothing was handed in
	ShardNotRun                        // the shard store could not be opened or staged
)

// ShardResult reports a finished RunShard.
type ShardResult struct {
	Outcome     ShardOutcome
	Recorded    int   // grid jobs in the shard store at the end
	RunErr      error // the grid's error (ShardFailed) or the store's (ShardNotRun)
	CompleteErr error // the log did not reach the coordinator; the shard store is kept
}

// RunShard executes r.Lease: it rebuilds the shard's manifest, refuses to
// run unless its spec hash reproduces the job id and its own cut of the
// grid gives the shard the lease's job count, resumes the shard store at
// r.Dir or stages a fresh one in memory, replays the shard's jobs while
// heartbeating every max(TTL/3, 10ms), and hands the job-log image in
// through r.Complete. A staged store is written to r.Dir at the first
// heartbeat tick that finds the shard still running. After a clean
// hand-in the store is deleted unsynced, or just dropped if it never
// reached the disk; in every other outcome it is written out if it is
// still staged, synced and kept for a later lease of the same shard. A
// worker killed outright within a shard's first tick therefore re-runs
// that tick's jobs, which costs less than the lease TTL the coordinator
// waits before the shard can be leased again.
func RunShard(ctx context.Context, r ShardRun) ShardResult {
	l := r.Lease
	store, err := openShardStore(r)
	if err != nil {
		return ShardResult{Outcome: ShardNotRun, RunErr: err}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var lost atomic.Bool
	beat := func() {
		err := r.Heartbeat(runCtx, store.Len())
		switch {
		case errors.Is(err, ErrLeaseLost):
			lost.Store(true)
			cancel()
		case err != nil && runCtx.Err() == nil:
			// A coordinator blip is survivable as long as one heartbeat
			// lands inside the TTL; keep trying until the lease verdict.
			r.Logf("heartbeat for shard %d of job %.12s: %v", l.Shard, l.JobID, err)
		}
	}
	grid := r.Grid
	if r.BeatPerJob {
		grid.Progress = func(int, int, sim.GridJob, error) { beat() }
	}
	ticking := make(chan struct{})
	go func() {
		defer close(ticking)
		t := time.NewTicker(max(time.Duration(l.TTLMS)*time.Millisecond/3, 10*time.Millisecond))
		defer t.Stop()
		for first := true; ; first = false {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				beat()
			}
			if first {
				// The shard outlived a tick: keep its store on disk, so a
				// killed worker resumes it. A failure is retried at Close.
				if err := store.WriteOut(); err != nil {
					r.Logf("writing out shard store %s: %v", r.Dir, err)
				}
			}
		}
	}()

	_, runErr := store.RunContext(runCtx, grid)
	cancel()
	<-ticking

	res := ShardResult{Outcome: ShardCompleted, Recorded: store.Len()}
	failMsg := ""
	switch {
	case lost.Load():
		res.Outcome = ShardLeaseLost
	case runErr != nil && ctx.Err() != nil:
		res.Outcome, failMsg = ShardHandedOff, "worker shutdown"
	case runErr != nil:
		res.Outcome, res.RunErr, failMsg = ShardFailed, runErr, runErr.Error()
	}
	if res.Outcome != ShardLeaseLost {
		log, err := store.Image()
		if err == nil {
			err = r.Complete(ctx, log, failMsg)
		}
		res.CompleteErr = err
	}
	if res.Outcome == ShardCompleted && res.CompleteErr == nil {
		// The coordinator made the records durable before it answered.
		if err := store.Remove(); err != nil {
			r.Logf("removing shard store %s: %v", r.Dir, err)
		}
	} else if err := store.Close(); err != nil {
		// A later lease of the shard resumes the kept store; a failed
		// sync only costs that lease some replay.
		r.Logf("keeping shard store %s: %v", r.Dir, err)
	}
	return res
}

// openShardStore stages (or resumes) the shard store for r.Lease. A
// worker must never burn CPU on a grid whose identity it cannot prove, so
// the lease's manifest must hash to the job id, and the shard this
// build's rule cuts must hold the lease's job count: a coordinator built
// with another shard rule would otherwise wait for jobs the worker never
// runs, and requeue the shard forever. A shard store is only a
// resume cache — the coordinator's store holds the truth — so one that
// cannot be opened, or that holds a different shard, is logged, removed
// and staged afresh rather than blocking the shard.
func openShardStore(r ShardRun) (*report.Store, error) {
	l := r.Lease
	shard := report.Shard{Index: l.Shard, Count: l.Shards}
	m, err := report.NewManifest(l.Name, l.Specs, l.CurvePoints, shard)
	if err != nil {
		return nil, err
	}
	if m.SpecHash != l.JobID {
		return nil, fmt.Errorf("lease for job %.12s carries specs hashing to %.12s — refusing to run", l.JobID, m.SpecHash)
	}
	plan, err := m.Plan()
	if err != nil {
		return nil, err
	}
	if n := len(plan.ShardSlice(l.Shard, l.Shards)); n != l.Jobs {
		return nil, fmt.Errorf("lease for shard %d/%d of job %.12s names %d grid jobs, this worker's shard rule cuts %d — coordinator and worker disagree on the shard rule; refusing to run",
			l.Shard, l.Shards, l.JobID, l.Jobs, n)
	}
	if report.Exists(r.Dir) {
		st, err := report.Open(r.Dir)
		if err == nil {
			got := st.Manifest()
			if got.SpecHash == l.JobID && got.Shard == shard {
				if st.Len() > 0 {
					r.Logf("resuming shard %d of job %.12s (%d jobs already recorded)", l.Shard, l.JobID, st.Len())
				}
				return st, nil
			}
			st.Close()
			err = fmt.Errorf("it holds a different shard (%.12s %s)", got.SpecHash, got.Shard)
		}
		r.Logf("discarding shard store %s for shard %d of job %.12s: %v", r.Dir, l.Shard, l.JobID, err)
		if err := os.RemoveAll(r.Dir); err != nil {
			return nil, err
		}
	}
	return report.Stage(r.Dir, m)
}
