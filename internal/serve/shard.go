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
// sharded run store, so a worker stopped mid-shard resumes its own
// partial log on its next lease of the shard, and a different worker
// re-running it uploads records that determinism makes verify.

// ShardRun is one leased shard to execute.
type ShardRun struct {
	Lease Lease
	// Dir is the shard store, stable per (job, shard) so a re-lease
	// resumes it.
	Dir string
	// Grid carries the replay knobs (workers, chunk size, parallelism,
	// checkpoints, metrics); the store sets the rest.
	Grid sim.GridOptions
	// Heartbeat renews the lease every TTL/3, reporting done, the grid
	// jobs in the shard store. ErrLeaseLost stops the run at its next
	// chunk boundary; other errors are logged and retried on the next tick.
	Heartbeat func(ctx context.Context, done int) error
	// BeatPerJob also heartbeats after every finished grid job.
	BeatPerJob bool
	// Complete hands the log at logPath to the coordinator; failMsg is
	// empty after a clean run. ctx may already be cancelled.
	Complete func(ctx context.Context, logPath, failMsg string) error
	// Logf receives the resume notice and heartbeat errors.
	Logf func(format string, args ...any)
}

// ShardOutcome says how RunShard ended.
type ShardOutcome int

const (
	ShardCompleted ShardOutcome = iota // the clean run's log was handed in
	ShardFailed                        // the grid failed; its partial log was handed in with the error
	ShardHandedOff                     // ctx ended mid-run; the partial log was handed in, so the shard requeues at once
	ShardLeaseLost                     // the lease was revoked; nothing was handed in
	ShardNotRun                        // the shard store could not be opened or created
)

// ShardResult reports a finished RunShard.
type ShardResult struct {
	Outcome     ShardOutcome
	Recorded    int   // grid jobs in the shard store at the end
	RunErr      error // the grid's error (ShardFailed) or the store's (ShardNotRun)
	CompleteErr error // the log did not reach the coordinator; the shard store is kept
}

// RunShard executes r.Lease: it rebuilds the shard's manifest, refuses to
// run unless its spec hash reproduces the job id, resumes or creates the
// shard store at r.Dir, replays the shard's jobs while heartbeating every
// TTL/3, and hands the log in through r.Complete. After a clean hand-in
// the shard store is removed; in every other outcome it is kept for a
// later lease of the same shard.
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
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				beat()
			}
		}
	}()

	_, runErr := store.RunContext(runCtx, grid)
	if serr := store.Sync(); runErr == nil && serr != nil {
		runErr = serr
	}
	cancel()
	<-ticking
	store.Close()

	res := ShardResult{Outcome: ShardCompleted, Recorded: store.Len()}
	failMsg := ""
	switch {
	case lost.Load():
		res.Outcome = ShardLeaseLost
		return res
	case runErr != nil && ctx.Err() != nil:
		res.Outcome, failMsg = ShardHandedOff, "worker shutdown"
	case runErr != nil:
		res.Outcome, res.RunErr, failMsg = ShardFailed, runErr, runErr.Error()
	}
	res.CompleteErr = r.Complete(ctx, store.LogPath(), failMsg)
	if res.Outcome == ShardCompleted && res.CompleteErr == nil {
		os.RemoveAll(r.Dir) // the coordinator holds everything durable now
	}
	return res
}

// openShardStore creates (or resumes) the shard store for r.Lease. A
// worker must never burn CPU on a grid whose identity it cannot prove, so
// the lease's manifest must hash to the job id. A shard store is only a
// resume cache — the coordinator's store holds the truth — so one that
// cannot be opened, or that holds a different shard, is logged, removed
// and created afresh rather than blocking the shard.
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
	return report.Create(r.Dir, m)
}
