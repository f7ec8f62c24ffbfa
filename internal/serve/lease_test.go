package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"obm/internal/report"
	"obm/internal/sim"
	"obm/internal/trace"
	"obm/internal/wal/waltest"
)

// leaseSpecs is a grid with enough jobs for several shards.
func leaseSpecs() []sim.ScenarioSpec {
	return []sim.ScenarioSpec{{
		Name: "lease-uni", Family: "uniform",
		Racks: 8, Requests: 1200, Seed: 21,
		Bs: []int{2, 3}, Reps: 3,
		Algs: []string{"r-bma", "oblivious"},
	}} // 2 algs × 2 bs × 3 reps = 12 grid jobs
}

// coordinator builds a fleet-only server (no local pool) so queued jobs
// wait for leases instead of racing the local workers.
func coordinator(t *testing.T, opt Options) (*Server, *job) {
	t.Helper()
	if opt.StoreRoot == "" {
		opt.StoreRoot = t.TempDir()
	}
	opt.Workers = -1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	st, err := s.Submit(leaseSpecs())
	if err != nil {
		t.Fatal(err)
	}
	j, ok := s.lookup(st.ID)
	if !ok {
		t.Fatal("submitted job not found")
	}
	return s, j
}

func TestLeasePartitionAndExhaustion(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 5, CurvePoints: 2})
	plan, err := j.manifest.Plan()
	if err != nil {
		t.Fatal(err)
	}
	wantShards := (len(plan.Jobs) + 4) / 5
	// The table is planned at submission: a queued job lists every shard
	// as pending.
	shards := s.shardStatuses(j)
	if len(shards) != wantShards {
		t.Fatalf("queued job lists %d shards, want %d", len(shards), wantShards)
	}
	for k, sh := range shards {
		if sh.Index != k || sh.State != string(shardPending) || sh.Jobs != len(plan.ShardSlice(k, wantShards)) || sh.Attempts != 0 {
			t.Fatalf("queued job's shard %d = %+v, want pending with %d jobs", k, sh, len(plan.ShardSlice(k, wantShards)))
		}
	}

	l0, err := s.lease(j, "w0")
	if err != nil {
		t.Fatal(err)
	}
	if l0.Shards != wantShards || l0.Jobs != len(plan.ShardSlice(l0.Shard, l0.Shards)) ||
		l0.Token == "" || l0.JobID != j.id {
		t.Fatalf("lease = %+v (want %d shards over %d jobs)", l0, wantShards, len(plan.Jobs))
	}
	if got := j.status(); got.State != StateRunning {
		t.Fatalf("after first lease, status = %+v", got)
	}
	requireHolder(t, s, j, l0.Shard, "w0")
	// The lease carries enough to reproduce the job id.
	m, err := report.NewManifest(l0.Name, l0.Specs, l0.CurvePoints, report.Shard{Index: l0.Shard, Count: l0.Shards})
	if err != nil {
		t.Fatal(err)
	}
	if m.SpecHash != j.id {
		t.Fatalf("lease manifest hashes to %.12s, job is %.12s", m.SpecHash, j.id)
	}

	seen := map[int]bool{l0.Shard: true}
	for i := 1; i < wantShards; i++ {
		l, err := s.lease(j, "w0")
		if err != nil {
			t.Fatal(err)
		}
		if seen[l.Shard] {
			t.Fatalf("shard %d leased twice", l.Shard)
		}
		seen[l.Shard] = true
	}
	if _, err := s.lease(j, "w0"); !errors.Is(err, ErrNoLease) {
		t.Fatalf("lease beyond exhaustion: %v", err)
	}
}

func TestLeaseExpiryRequeuesShard(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 100, LeaseTTL: 20 * time.Millisecond})

	l0, err := s.lease(j, "w0")
	if err != nil {
		t.Fatal(err)
	}
	if l0.Shards != 1 {
		t.Fatalf("want a single shard, got %d", l0.Shards)
	}
	if _, err := s.lease(j, "w1"); !errors.Is(err, ErrNoLease) {
		t.Fatalf("second lease while live: %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	l1, err := s.lease(j, "w1")
	if err != nil {
		t.Fatalf("lease after expiry: %v", err)
	}
	if l1.Shard != l0.Shard || l1.Token == l0.Token {
		t.Fatalf("requeued lease = %+v (old token %s)", l1, l0.Token)
	}
	// The dead worker's heartbeat must now be told to stand down.
	if _, err := s.heartbeat(j, l0.Shard, l0.Token, 1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale heartbeat: %v", err)
	}
	// The live worker's heartbeat renews and reports progress.
	if _, err := s.heartbeat(j, l1.Shard, l1.Token, 2); err != nil {
		t.Fatal(err)
	}
	if st := j.status(); st.Done != 2 {
		t.Fatalf("heartbeat progress not reflected: %+v", st)
	}
}

// runLeasedShard executes a lease the way internal/work does — a local
// sharded store — and returns the raw log bytes.
func runLeasedShard(t *testing.T, dir string, l Lease) []byte {
	t.Helper()
	m, err := report.NewManifest(l.Name, l.Specs, l.CurvePoints, report.Shard{Index: l.Shard, Count: l.Shards})
	if err != nil {
		t.Fatal(err)
	}
	st, err := report.Create(filepath.Join(dir, "shard"), m)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Run(sim.GridOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(st.LogPath())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSubmitNeverBlocksOnGhostQueueSlots: a lease moves a job out of
// state queued, which frees its slot under QueueDepth. Submit must then
// accept new jobs and return promptly, never block while holding the
// server lock — which would freeze every endpoint permanently.
func TestSubmitNeverBlocksOnGhostQueueSlots(t *testing.T) {
	s, err := New(Options{StoreRoot: t.TempDir(), Workers: -1, QueueDepth: 2, ShardSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	specsAt := func(seed uint64) []sim.ScenarioSpec {
		sp := leaseSpecs()
		sp[0].Seed = seed
		return sp
	}
	for seed := uint64(100); seed < 102; seed++ {
		if _, err := s.Submit(specsAt(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(specsAt(102)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit at depth 2: %v, want ErrQueueFull", err)
	}
	// The fleet leases both queued jobs, freeing their queue slots.
	for seed := uint64(100); seed < 102; seed++ {
		st, _ := s.Submit(specsAt(seed)) // dedupe hit to get the id
		j, _ := s.lookup(st.ID)
		if _, err := s.lease(j, "w0"); err != nil {
			t.Fatalf("lease seed %d: %v", seed, err)
		}
	}
	// Fresh submissions must be accepted (the queue slots are free) and
	// must return promptly. Each new job is leased in turn, the lifecycle
	// that keeps a coordinator-only server accepting work indefinitely.
	done := make(chan error, 1)
	go func() {
		for seed := uint64(102); seed < 107; seed++ {
			st, err := s.Submit(specsAt(seed))
			if err != nil {
				done <- err
				return
			}
			nj, _ := s.lookup(st.ID)
			if _, err := s.lease(nj, "w0"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submit after fleet claims: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit blocked after leases freed the queue (deadlock regression)")
	}
}

// TestRecoveredShardsNotReExecuted: when lease state is rebuilt (e.g.
// after a coordinator restart), shards whose jobs are already in the
// job's store must start out done — the fleet must not re-run compute
// the store already holds.
func TestRecoveredShardsNotReExecuted(t *testing.T) {
	root := t.TempDir()
	s, j := coordinator(t, Options{StoreRoot: root, ShardSize: 5, CurvePoints: 2})
	l0, err := s.lease(j, "w0")
	if err != nil {
		t.Fatal(err)
	}
	blob := runLeasedShard(t, t.TempDir(), l0)
	if _, err := s.completeShard(j, l0.Shard, l0.Token, "w0", "", bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same root rebuilds lease state
	// from nothing but the stores.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	s2, err := New(Options{StoreRoot: root, Workers: -1, ShardSize: 5, CurvePoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	})
	j2, ok := s2.lookup(j.id)
	if !ok {
		t.Fatal("job not recovered")
	}
	granted := 0
	for {
		l, err := s2.lease(j2, "w1")
		if errors.Is(err, ErrNoLease) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if l.Shard == l0.Shard {
			t.Fatalf("shard %d re-leased although its jobs are all recorded", l0.Shard)
		}
		granted++
	}
	if granted != l0.Shards-1 {
		t.Fatalf("recovered job leased %d shards, want %d (all but the recorded one)", granted, l0.Shards-1)
	}
}

// TestLeaseFinalizesAlreadyCompleteJob: a fleet lease against a job
// whose store already holds every grid job (here, one that failed at the
// render step and was resubmitted) must finish the job rather than
// strand it in "running" — no upload will ever arrive to do it.
func TestLeaseFinalizesAlreadyCompleteJob(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 5, CurvePoints: 2})

	// Record the whole grid through the fleet protocol while a directory
	// squats on summary.csv, so the completion render fails the job.
	summary := filepath.Join(j.dir, "summary.csv")
	if err := os.Mkdir(summary, 0o755); err != nil {
		t.Fatal(err)
	}
	for {
		l, err := s.lease(j, "w0")
		if errors.Is(err, ErrNoLease) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.completeShard(j, l.Shard, l.Token, "w0", "", bytes.NewReader(runLeasedShard(t, t.TempDir(), l))); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.status(); got.State != StateFailed {
		t.Fatalf("job whose render failed = %+v, want failed", got)
	}
	if err := os.Remove(summary); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Submit(leaseSpecs()); err != nil || st.State != StateQueued {
		t.Fatalf("resubmitting the failed job: %+v, %v", st, err)
	}

	if _, err := s.lease(j, "w0"); !errors.Is(err, ErrNoLease) {
		t.Fatalf("lease on a fully recorded job: %v, want ErrNoLease", err)
	}
	if got := j.status(); got.State != StateDone || got.Done != got.Total {
		t.Fatalf("fully recorded job not finalized by the lease path: %+v", got)
	}
	if _, err := os.Stat(summary); err != nil {
		t.Fatalf("finalized job was not rendered: %v", err)
	}
}

// TestCompleteShardsFinishJob drives the whole coordinator protocol
// in-process: lease every shard, upload every log, and the job must
// finish with a summary byte-identical to a direct run — including when
// one shard's log is uploaded twice (at-least-once delivery).
func TestCompleteShardsFinishJob(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 5, CurvePoints: 2})

	var logs []struct {
		l    Lease
		blob []byte
	}
	for {
		l, err := s.lease(j, "w0")
		if errors.Is(err, ErrNoLease) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, struct {
			l    Lease
			blob []byte
		}{l, runLeasedShard(t, t.TempDir(), l)})
	}
	if len(logs) == 0 || len(logs) != logs[0].l.Shards {
		t.Fatalf("leased %d shards, want %d", len(logs), logs[0].l.Shards)
	}
	for i, sh := range logs {
		st, err := s.completeShard(j, sh.l.Shard, sh.l.Token, "w0", "", bytes.NewReader(sh.blob))
		if err != nil {
			t.Fatal(err)
		}
		if i < len(logs)-1 && st.State != StateRunning {
			t.Fatalf("job terminal after %d/%d shards: %+v", i+1, len(logs), st)
		}
	}
	if st := j.status(); st.State != StateDone || st.Done != st.Total {
		t.Fatalf("after all shards: %+v", st)
	}
	// Duplicate completion of a finished job is accepted and changes
	// nothing (the worker may have retried an upload the first response
	// to which was lost).
	if st, err := s.completeShard(j, logs[0].l.Shard, logs[0].l.Token, "w0", "", bytes.NewReader(logs[0].blob)); err != nil || st.State != StateDone {
		t.Fatalf("duplicate complete: %+v, %v", st, err)
	}

	// Byte-identity with a direct single-process run.
	dir := filepath.Join(t.TempDir(), "direct")
	m, err := report.NewManifest("direct", leaseSpecs(), 2, report.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := report.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Run(sim.GridOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	refCSV, _, err := ref.Render()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refCSV)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(j.dir, "summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet-drained summary differs from direct run:\n--- fleet\n%s--- direct\n%s", got, want)
	}
}

// TestUploadAfterShutdownIsAStorageError: Shutdown closes a live job's
// store. An upload that arrives after it must fail as a storage error,
// which the worker retries, never fail the job, and append nothing.
func TestUploadAfterShutdownIsAStorageError(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 100, CurvePoints: 0})
	l, err := s.lease(j, "w0")
	if err != nil {
		t.Fatal(err)
	}
	blob := runLeasedShard(t, t.TempDir(), l)
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.completeShard(j, l.Shard, l.Token, "w0", "", bytes.NewReader(blob)); !errors.Is(err, ErrStorage) {
		t.Fatalf("upload after shutdown: %v, want ErrStorage", err)
	}
	if st := j.status(); st.State != StateRunning || st.Done != 0 {
		t.Fatalf("upload after shutdown changed the job: %+v", st)
	}
	if info, err := report.Inspect(j.dir); err != nil || info.Recorded != 0 {
		t.Fatalf("upload after shutdown reached the store: %+v, %v", info, err)
	}
}

// TestCompleteConflictFailsJob: an upload whose overlapping record
// disagrees with what the store already holds must fail the job loudly —
// identical seeds must mean identical costs.
func TestCompleteConflictFailsJob(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 6, CurvePoints: 0})

	l0, err := s.lease(j, "w0")
	if err != nil {
		t.Fatal(err)
	}
	blob := runLeasedShard(t, t.TempDir(), l0)
	if _, err := s.completeShard(j, l0.Shard, l0.Token, "w0", "", bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}

	// A tampered duplicate of the same shard log disagrees on a cost.
	recs := waltest.Records(t, blob)
	recs[0] = []byte(strings.Replace(string(recs[0]), `"routing":`, `"routing":1e99,"x_was":`, 1))
	if _, err := s.completeShard(j, l0.Shard, l0.Token, "evil", "", bytes.NewReader(waltest.Image(recs...))); err == nil {
		t.Fatal("conflicting upload accepted")
	}
	if st := j.status(); st.State != StateFailed || !strings.Contains(st.Error, "absorbing shard") {
		t.Fatalf("conflict did not fail the job: %+v", st)
	}
}

// TestCompletePartialUploadRequeues: a failed worker's partial log is
// absorbed (that work is not lost) but the shard goes back to pending.
func TestCompletePartialUploadRequeues(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 100, CurvePoints: 0})

	l0, err := s.lease(j, "w0")
	if err != nil {
		t.Fatal(err)
	}
	blob := runLeasedShard(t, t.TempDir(), l0)
	partial := waltest.Prefix(t, blob, 2) // 2 of 12 records

	st, err := s.completeShard(j, l0.Shard, l0.Token, "w0", "worker exploded", bytes.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Done != 2 {
		t.Fatalf("after failed partial upload: %+v", st)
	}
	// The shard is leasable again, and completing it finishes the job
	// (the duplicate records verify against the absorbed partial).
	l1, err := s.lease(j, "w1")
	if err != nil {
		t.Fatalf("re-lease after failure: %v", err)
	}
	if l1.Shard != l0.Shard {
		t.Fatalf("re-lease got shard %d, want %d", l1.Shard, l0.Shard)
	}
	if st, err := s.completeShard(j, l1.Shard, l1.Token, "w1", "", bytes.NewReader(blob)); err != nil || st.State != StateDone {
		t.Fatalf("full upload after partial: %+v, %v", st, err)
	}
}

// TestTruncatedUploadDoesNotFailJob: a worker dying mid-upload leaves a
// torn request body. That must reject the upload (the shard re-runs)
// without failing the job — only genuine outcome conflicts are fatal.
func TestTruncatedUploadDoesNotFailJob(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 100, CurvePoints: 0})
	l0, err := s.lease(j, "w0")
	if err != nil {
		t.Fatal(err)
	}
	blob := runLeasedShard(t, t.TempDir(), l0)
	torn := blob[:len(blob)-10] // cut inside the final record

	if _, err := s.completeShard(j, l0.Shard, l0.Token, "w0", "", bytes.NewReader(torn)); err == nil {
		t.Fatal("torn upload accepted as complete")
	} else if errors.Is(err, report.ErrOutcomeConflict) {
		t.Fatalf("torn upload misdiagnosed as a determinism conflict: %v", err)
	}
	if st := j.status(); st.State != StateRunning {
		t.Fatalf("torn upload failed the job: %+v", st)
	}
	if got, want := j.store.Len(), len(waltest.Records(t, blob))-1; got != want || want < 1 {
		t.Fatalf("torn upload absorbed %d records, want the %d before the tear", got, want)
	}
	// The records before the tear were absorbed, the lease is still
	// live; re-delivering the full log (the shard's re-run) completes
	// the job.
	if st, err := s.completeShard(j, l0.Shard, l0.Token, "w0", "", bytes.NewReader(blob)); err != nil || st.State != StateDone {
		t.Fatalf("re-delivery after torn upload: %+v, %v", st, err)
	}
}

// TestLocalClaimExcludesLeases: a shard a local worker holds is not
// leased to the fleet, and a stale upload for it — one that does not
// carry the local worker's token — leaves both the local lease and the
// job's store untouched.
func TestLocalClaimExcludesLeases(t *testing.T) {
	s, _ := newTestServer(t, Options{StoreRoot: t.TempDir(), Workers: 1, GridWorkers: 1, CurvePoints: 0})
	free := gatedFamily(t, "lease-local-test")
	st, err := s.Submit([]sim.ScenarioSpec{{
		Name: "local-owned", Family: "lease-local-test",
		Racks: 8, Requests: 3000, Seed: 5,
		Bs: []int{2}, Reps: 1,
		Algs: []string{"oblivious"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.lookup(st.ID)
	deadline := time.Now().Add(30 * time.Second)
	for j.status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started locally")
		}
	}
	holder := requireHolder(t, s, j, 0, "local/0")
	if _, err := s.lease(j, "w0"); !errors.Is(err, ErrNoLease) {
		t.Fatalf("lease of a locally held shard: %v", err)
	}
	// Stale uploads (from a worker that leased before a coordinator
	// restart, say): a torn log is rejected before it touches the store,
	// and a failure report under the wrong token absorbs nothing and
	// requeues nothing.
	if _, err := s.completeShard(j, 0, "stale-token", "w0", "", strings.NewReader("garbage that must never be parsed\n")); err == nil {
		t.Fatal("garbage upload accepted")
	}
	if _, err := s.completeShard(j, 0, "stale-token", "w0", "worker exploded", strings.NewReader("")); err != nil {
		t.Fatalf("stale failure report: %v", err)
	}
	if got := requireHolder(t, s, j, 0, "local/0"); got.Attempts != holder.Attempts {
		t.Fatalf("stale uploads changed the local lease: %+v, was %+v", got, holder)
	}
	if info, err := report.Inspect(j.dir); err != nil || info.Recorded != 0 {
		t.Fatalf("stale uploads touched the store: %+v, %v", info, err)
	}
	free()
	deadline = time.Now().Add(30 * time.Second)
	for j.status().State != StateDone {
		if j.status().State == StateFailed {
			t.Fatalf("job failed: %s", j.status().Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// requireHolder asserts that the shards endpoint shows shard k of j
// leased to worker, and returns that shard's status.
func requireHolder(t *testing.T, s *Server, j *job, k int, worker string) ShardStatus {
	t.Helper()
	shards := s.shardStatuses(j)
	if k >= len(shards) || shards[k].State != string(shardLeased) || shards[k].Worker != worker {
		t.Fatalf("shard %d not leased to %s: %+v", k, worker, shards)
	}
	return shards[k]
}

// TestShutdownClosesHubsOfRequeuedJobs is the regression test for the
// drain-time subscriber leak: a job requeued when Shutdown cancels its
// grid (and any job still queued at drain) must close its event hub so
// SSE subscribers are released instead of hanging forever.
func TestShutdownClosesHubsOfRequeuedJobs(t *testing.T) {
	root := t.TempDir()
	s, err := New(Options{StoreRoot: root, GridWorkers: 1, CurvePoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(slowSpecs())
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.lookup(st.ID)

	// Wait until the grid is genuinely in flight.
	deadline := time.Now().Add(30 * time.Second)
	for j.status().Done < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(time.Millisecond)
	}
	ch, done, cancel := j.events().subscribe()
	defer cancel()
	if done {
		t.Fatal("hub closed while the job is running")
	}

	// Expired context: the drain cancels the grid, which requeues the job.
	expired, expire := context.WithCancel(context.Background())
	expire()
	if err := s.Shutdown(expired); err != nil {
		t.Fatal(err)
	}
	if got := j.status().State; got != StateQueued {
		t.Fatalf("job state after drain = %s, want queued", got)
	}

	// The subscriber's channel must close (possibly after buffered
	// snapshots drain) — before the fix it stayed open forever.
	closed := make(chan struct{})
	go func() {
		for range ch {
		}
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber channel still open after Shutdown: drain leaks SSE subscribers")
	}
}

// gatedFamily registers a trace family whose streams block until the
// returned release func is called, and cleans up by releasing it — call
// it after creating the server, so the release runs before the server's
// shutdown.
func gatedFamily(t *testing.T, name string) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	sim.RegisterFamily(name, func(spec sim.ScenarioSpec) (trace.Stream, error) {
		return &blockingStream{n: spec.Racks, count: spec.Requests, release: gate}, nil
	})
	return release
}

// getShards reads a job's lease table from the shards endpoint.
func getShards(t *testing.T, ts *httptest.Server, id string) []ShardStatus {
	t.Helper()
	code, body := fetch(t, ts, "/api/v1/jobs/"+id+"/shards")
	if code != http.StatusOK {
		t.Fatalf("shards: status %d", code)
	}
	var resp struct {
		Shards []ShardStatus `json:"shards"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Shards
}

// waitShards polls the shards endpoint until ok accepts the table.
func waitShards(t *testing.T, ts *httptest.Server, id string, ok func([]ShardStatus) bool) []ShardStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		shards := getShards(t, ts, id)
		if ok(shards) {
			return shards
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards never reached the awaited state: %+v", shards)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLocalAndFleetWorkersDrainOneJob: the coordinator's local worker and
// a fleet worker drain one multi-shard job together. The shards endpoint
// shows each shard held and then completed by its worker, and the summary
// is byte-identical to a direct RunGrid.
func TestLocalAndFleetWorkersDrainOneJob(t *testing.T) {
	specs := []sim.ScenarioSpec{{
		Name: "mixed", Family: "mixed-drain-test",
		Racks: 8, Requests: 3000, Seed: 3,
		Bs: []int{2, 3}, Reps: 2,
		Algs: []string{"r-bma", "oblivious"},
	}} // 6 grid jobs → 3 shards of 2
	s, ts := newTestServer(t, Options{StoreRoot: t.TempDir(), Workers: 1, GridWorkers: 1, ShardSize: 2, CurvePoints: 4})
	release := gatedFamily(t, "mixed-drain-test")
	st, code := submit(t, ts, specs)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	j, _ := s.lookup(st.ID)

	// The local worker takes shard 0 and blocks inside it; the fleet
	// worker leases the rest meanwhile.
	waitShards(t, ts, st.ID, func(sh []ShardStatus) bool {
		return len(sh) == 3 && sh[0].State == "leased" && sh[0].Worker == "local/0"
	})
	var fleet []Lease
	for {
		l, err := s.lease(j, "fleet-w")
		if errors.Is(err, ErrNoLease) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, l)
	}
	if len(fleet) != 2 || fleet[0].Shard != 1 || fleet[1].Shard != 2 {
		t.Fatalf("fleet leased %+v, want shards 1 and 2", fleet)
	}
	shards := getShards(t, ts, st.ID)
	for k, want := range []string{"local/0", "fleet-w", "fleet-w"} {
		if shards[k].State != "leased" || shards[k].Worker != want {
			t.Fatalf("shard %d = %+v, want leased to %s", k, shards[k], want)
		}
	}

	// Open the gate: the local worker completes shard 0 while the fleet
	// completes shard 1, then shard 2 finishes the job.
	release()
	blob1 := runLeasedShard(t, t.TempDir(), fleet[0])
	if _, err := s.completeShard(j, 1, fleet[0].Token, "fleet-w", "", bytes.NewReader(blob1)); err != nil {
		t.Fatal(err)
	}
	shards = waitShards(t, ts, st.ID, func(sh []ShardStatus) bool { return sh[0].State == "done" })
	if shards[1].State != "done" || shards[2].State != "leased" || shards[2].Worker != "fleet-w" {
		t.Fatalf("before the last upload: %+v", shards)
	}
	if got := j.status(); got.State != StateRunning {
		t.Fatalf("job with a shard still leased = %+v", got)
	}
	blob2 := runLeasedShard(t, t.TempDir(), fleet[1])
	if st, err := s.completeShard(j, 2, fleet[1].Token, "fleet-w", "", bytes.NewReader(blob2)); err != nil || st.State != StateDone {
		t.Fatalf("last upload: %+v, %v", st, err)
	}
	for _, sh := range getShards(t, ts, st.ID) {
		if sh.State != "done" || sh.Attempts != 1 {
			t.Errorf("shard %d = %+v, want done on its first lease", sh.Index, sh)
		}
	}
	code, got := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/summary.csv")
	if code != http.StatusOK {
		t.Fatalf("summary.csv: status %d", code)
	}
	if want := directSummary(t, specs, 4); !bytes.Equal(got, want) {
		t.Errorf("mixed-drain summary differs from RunGrid:\n got:\n%s\nwant:\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(j.dir, localShardsDir)); !os.IsNotExist(err) {
		t.Errorf("local shard stores left after the job finished: %v", err)
	}
}

// TestLocalWorkerTakesOverExpiredFleetLease: a fleet worker leases a
// job's only shard and never heartbeats. Once the lease expires, the idle
// local worker — with no request from anyone to wake it — reaps it,
// re-runs the shard and finishes the job, byte-identical to RunGrid.
func TestLocalWorkerTakesOverExpiredFleetLease(t *testing.T) {
	s, ts := newTestServer(t, Options{StoreRoot: t.TempDir(), Workers: 1, GridWorkers: 1, LeaseTTL: 150 * time.Millisecond, CurvePoints: 4})
	release := gatedFamily(t, "takeover-test")

	// Keep the only local worker busy so the fleet leases the target first.
	busy, code := submit(t, ts, []sim.ScenarioSpec{{
		Name: "takeover-busy", Family: "takeover-test",
		Racks: 8, Requests: 3000, Seed: 1,
		Bs: []int{2}, Reps: 1,
		Algs: []string{"oblivious"},
	}})
	if code != http.StatusAccepted {
		t.Fatalf("busy submit: status %d", code)
	}
	waitState(t, ts, busy.ID, StateRunning)
	target, code := submit(t, ts, tinySpecs())
	if code != http.StatusAccepted {
		t.Fatalf("target submit: status %d", code)
	}
	tj, _ := s.lookup(target.ID)
	silent, err := s.lease(tj, "silent-fleet")
	if err != nil {
		t.Fatal(err)
	}

	release()
	waitState(t, ts, busy.ID, StateDone)
	waitState(t, ts, target.ID, StateDone)
	shards := getShards(t, ts, target.ID)
	if len(shards) != 1 || shards[0].State != "done" || shards[0].Attempts != 2 {
		t.Fatalf("target shards = %+v, want one shard done on its second lease", shards)
	}
	if _, err := s.heartbeat(tj, silent.Shard, silent.Token, 1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("late heartbeat of the expired fleet lease: %v, want ErrLeaseLost", err)
	}
	code, got := fetch(t, ts, "/api/v1/jobs/"+target.ID+"/summary.csv")
	if code != http.StatusOK {
		t.Fatalf("summary.csv: status %d", code)
	}
	if want := directSummary(t, tinySpecs(), 4); !bytes.Equal(got, want) {
		t.Errorf("taken-over summary differs from RunGrid:\n got:\n%s\nwant:\n%s", got, want)
	}
}
