package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obm/internal/wal"
)

// pickLease deterministically selects one held lease (map iteration order
// is randomized in Go; sorting keeps a seed reproducible).
func pickLease(rng *rand.Rand, leases map[int]Lease) (int, Lease, bool) {
	if len(leases) == 0 {
		return 0, Lease{}, false
	}
	keys := make([]int, 0, len(leases))
	for k := range leases {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	k := keys[rng.Intn(len(keys))]
	return k, leases[k], true
}

// TestWALReplayMatchesInMemoryState is the model-based property test:
// random interleavings of the five lease-table operations — lease,
// heartbeat, expire(+reap), failed partial upload, full completion —
// applied to a live coordinator must leave a WAL whose strict replay
// reconstructs the in-memory shard table exactly (phase, token, worker,
// progress, attempts, recorded count). Shard 0 is never fully completed
// so the job stays live and its journal stays on disk.
func TestWALReplayMatchesInMemoryState(t *testing.T) {
	logs := buildShardLogs(t, "uniform")
	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := faultCoordinator(t, t.TempDir())
			st, err := s.Submit(faultSpecs("uniform"))
			if err != nil {
				t.Fatal(err)
			}
			j, _ := s.lookup(st.ID)
			leases := make(map[int]Lease)

			// Prime the lease table so every later op has state to act on.
			if l, err := s.lease(j, "w0"); err == nil {
				leases[l.Shard] = l
			} else {
				t.Fatal(err)
			}
			for op := 0; op < 60; op++ {
				switch rng.Intn(5) {
				case 0: // lease whatever is pending
					if l, err := s.lease(j, fmt.Sprintf("w%d", rng.Intn(3))); err == nil {
						leases[l.Shard] = l
					} else if !errors.Is(err, ErrNoLease) {
						t.Fatal(err)
					}
				case 1: // heartbeat a held lease
					if k, l, ok := pickLease(rng, leases); ok {
						if _, err := s.heartbeat(j, k, l.Token, rng.Intn(4)); errors.Is(err, ErrLeaseLost) {
							delete(leases, k)
						} else if err != nil {
							t.Fatal(err)
						}
					}
				case 2: // TTL lapse + the reap that notices it
					if k, _, ok := pickLease(rng, leases); ok {
						expireLease(j, k)
						s.shardStatuses(j)
						delete(leases, k)
					}
				case 3: // worker failure: partial log absorbed, shard requeued
					if k, l, ok := pickLease(rng, leases); ok {
						half, job := partialUpload(t, logs[k])
						if _, err := s.completeShard(j, k, l.Token, "w", "injected", bytes.NewReader(half)); err != nil {
							t.Fatal(err)
						}
						if _, ok := j.store.Lookup(job); !ok {
							t.Fatalf("partial upload of shard %d absorbed nothing (%s missing)", k, job)
						}
						delete(leases, k)
					}
				case 4: // full completion of any shard but 0
					k := 1 + rng.Intn(len(logs)-1)
					tok := ""
					if l, ok := leases[k]; ok {
						tok = l.Token
					}
					if _, err := s.completeShard(j, k, tok, "w", "", bytes.NewReader(logs[k])); err != nil {
						t.Fatal(err)
					}
					delete(leases, k)
				}
			}

			type view struct {
				phase          shardPhase
				token, worker  string
				done, attempts int
			}
			j.mu.Lock()
			if j.dist == nil {
				j.mu.Unlock()
				t.Fatal("no lease table after op sequence")
			}
			mem := make([]view, len(j.dist.shards))
			for k := range j.dist.shards {
				sh := &j.dist.shards[k]
				mem[k] = view{sh.phase, sh.token, sh.worker, sh.done, sh.attempts}
			}
			memRecorded := j.dist.recorded
			walPath := j.wal.Path()
			j.mu.Unlock()

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx) // flushes and closes the journal, keeps the file

			var replayed walJobState
			lg, n, err := wal.Open(walPath, replayed.apply)
			if err != nil {
				t.Fatalf("strict replay failed: %v", err)
			}
			lg.Close()
			if n == 0 {
				t.Fatal("journal is empty after an op sequence")
			}
			if len(replayed.shards) != len(mem) {
				t.Fatalf("replay has %d shards, memory has %d", len(replayed.shards), len(mem))
			}
			for k := range mem {
				got := replayed.shards[k]
				if got.phase != mem[k].phase || got.token != mem[k].token ||
					got.worker != mem[k].worker || got.done != mem[k].done ||
					got.attempts != mem[k].attempts {
					t.Errorf("shard %d: replay {%s %q %q done=%d att=%d} != memory %+v",
						k, got.phase, got.token, got.worker, got.done, got.attempts, mem[k])
				}
			}
			if replayed.recorded != memRecorded {
				t.Errorf("replay recorded = %d, memory = %d", replayed.recorded, memRecorded)
			}
		})
	}
}

// TestRestartHonorsLiveLeasesAndReapsDeadOnes is the coordinator-restart
// race test: a worker whose lease is still inside its TTL when the
// coordinator comes back keeps its shard (heartbeats are honored, same
// token), a worker whose lease lapsed during the outage gets 409
// (ErrLeaseLost), and the lapsed shard is requeued — never dropped.
func TestRestartHonorsLiveLeasesAndReapsDeadOnes(t *testing.T) {
	logs := buildShardLogs(t, "uniform")
	root := t.TempDir()
	s1 := faultCoordinator(t, root)
	st, err := s1.Submit(faultSpecs("uniform"))
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.lookup(st.ID)

	lA, err := s1.lease(j1, "worker-dead")
	if err != nil {
		t.Fatal(err)
	}
	lB, err := s1.lease(j1, "worker-live")
	if err != nil {
		t.Fatal(err)
	}
	// Make lease A journaled-dead: a heartbeat record whose renewed expiry
	// is already in the past is exactly what a log looks like when the
	// coordinator was down longer than the worker's TTL.
	j1.mu.Lock()
	shA := &j1.dist.shards[lA.Shard]
	shA.expires = time.Now().Add(-time.Minute)
	s1.walAppend(j1, walRecHeartbeat(lA.Shard, shA))
	j1.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Shutdown(ctx)

	s2 := faultCoordinator(t, root)
	defer func() { s2.Shutdown(ctx) }()
	j2, ok := s2.lookup(st.ID)
	if !ok {
		t.Fatal("job not recovered")
	}
	if got := j2.status(); got.State != StateRunning {
		t.Fatalf("recovered job = %+v, want running", got)
	}
	requireHolder(t, s2, j2, lB.Shard, "worker-live")
	if n := s2.met.walReplayed.Value(); n == 0 {
		t.Fatal("restart replayed no WAL records")
	}
	if n := s2.met.walRecoveredLeases.Value(); n != 1 {
		t.Fatalf("recovered %d live leases, want 1 (worker-live)", n)
	}

	// The live worker's heartbeat is honored with its original token.
	if _, err := s2.heartbeat(j2, lB.Shard, lB.Token, 2); err != nil {
		t.Fatalf("live lease heartbeat after restart: %v", err)
	}
	// The dead worker gets the 409 and stands down.
	if _, err := s2.heartbeat(j2, lA.Shard, lA.Token, 1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead lease heartbeat after restart: %v, want ErrLeaseLost", err)
	}
	// Its shard was requeued, not dropped: the next lease call grants it.
	lA2, err := s2.lease(j2, "worker-new")
	if err != nil {
		t.Fatalf("re-leasing the reaped shard: %v", err)
	}
	if lA2.Shard != lA.Shard {
		t.Fatalf("re-lease granted shard %d, want the requeued %d", lA2.Shard, lA.Shard)
	}
	if lA2.Token == lA.Token {
		t.Fatal("requeued shard reissued with the dead lease's token")
	}

	// No shard is lost: the fleet drains the job to done.
	for k := 0; k < len(logs); k++ {
		if _, err := s2.completeShard(j2, k, "", "worker-new", "", bytes.NewReader(logs[k])); err != nil {
			t.Fatalf("complete shard %d: %v", k, err)
		}
	}
	if got := j2.status(); got.State != StateDone {
		t.Fatalf("after draining recovered job: %+v", got)
	}
	if _, err := os.Stat(filepath.Join(j2.dir, leaseWALFile)); !os.IsNotExist(err) {
		t.Fatalf("journal still present after the job finished: %v", err)
	}
}

// TestRestartWithAllLeasesDeadFallsBack: when every journaled lease is
// already past its TTL at recovery, the WAL is discarded and the job
// recovers on the plain path — queued, claimable by pool and fleet alike —
// instead of sitting fleet-claimed with no live workers.
func TestRestartWithAllLeasesDeadFallsBack(t *testing.T) {
	root := t.TempDir()
	s1, err := New(Options{
		StoreRoot: root, Workers: -1,
		ShardSize: 100, CurvePoints: faultCurvePoints,
		LeaseTTL: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(faultSpecs("uniform"))
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.lookup(st.ID)
	l0, err := s1.lease(j1, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Shutdown(ctx)
	time.Sleep(80 * time.Millisecond) // outage outlives the TTL

	s2, err := New(Options{
		StoreRoot: root, Workers: -1,
		ShardSize: 100, CurvePoints: faultCurvePoints,
		LeaseTTL: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s2.Shutdown(ctx) }()
	j2, ok := s2.lookup(st.ID)
	if !ok {
		t.Fatal("job not recovered")
	}
	if got := j2.status(); got.State != StateQueued {
		t.Fatalf("job with only dead leases = %+v, want queued", got)
	}
	if _, err := os.Stat(filepath.Join(j2.dir, leaseWALFile)); !os.IsNotExist(err) {
		t.Fatalf("stale journal not discarded: %v", err)
	}
	// The dead worker's heartbeat is refused; the shard is re-leasable.
	if _, err := s2.heartbeat(j2, l0.Shard, l0.Token, 1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("heartbeat on fallback-recovered job: %v, want ErrLeaseLost", err)
	}
	if _, err := s2.lease(j2, "fresh"); err != nil {
		t.Fatalf("re-lease after fallback: %v", err)
	}
}

// TestRestartDiscardsWALOnCorruptionAndShardMismatch: a journal that
// fails strict replay, and a journal whose shard partition no longer
// matches the server's ShardSize, must both be discarded — recovery
// degrades to the plain path, never replays a lie.
func TestRestartDiscardsWALOnCorruptionAndShardMismatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	t.Run("corrupt", func(t *testing.T) {
		root := t.TempDir()
		s1 := faultCoordinator(t, root)
		st, _ := s1.Submit(faultSpecs("uniform"))
		j1, _ := s1.lookup(st.ID)
		if _, err := s1.lease(j1, "w0"); err != nil {
			t.Fatal(err)
		}
		s1.Shutdown(ctx)
		path := filepath.Join(j1.dir, leaseWALFile)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0xff
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := faultCoordinator(t, root)
		defer func() { s2.Shutdown(ctx) }()
		j2, _ := s2.lookup(st.ID)
		if got := j2.status(); got.State != StateQueued {
			t.Fatalf("job with corrupt journal = %+v, want queued", got)
		}
		if n := s2.met.walDiscarded.Value(); n != 1 {
			t.Fatalf("walDiscarded = %d, want 1", n)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt journal left on disk: %v", err)
		}
	})

	t.Run("shard-mismatch", func(t *testing.T) {
		root := t.TempDir()
		s1 := faultCoordinator(t, root) // ShardSize 3
		st, _ := s1.Submit(faultSpecs("uniform"))
		j1, _ := s1.lookup(st.ID)
		if _, err := s1.lease(j1, "w0"); err != nil {
			t.Fatal(err)
		}
		s1.Shutdown(ctx)
		s2, err := New(Options{ // different partition: old shard indices are meaningless
			StoreRoot: root, Workers: -1,
			ShardSize: 100, CurvePoints: faultCurvePoints, LeaseTTL: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s2.Shutdown(ctx) }()
		j2, _ := s2.lookup(st.ID)
		if got := j2.status(); got.State != StateQueued {
			t.Fatalf("job with mismatched journal = %+v, want queued", got)
		}
		if n := s2.met.walDiscarded.Value(); n != 1 {
			t.Fatalf("walDiscarded = %d, want 1", n)
		}
		l, err := s2.lease(j2, "w1")
		if err != nil {
			t.Fatalf("lease under the new partition: %v", err)
		}
		if l.Shards != 1 {
			t.Fatalf("new partition has %d shards, want 1", l.Shards)
		}
	})
}

// TestSSESubscribersReconnectAcrossRestart: subscribers of the dying
// coordinator are released (closed channel — the SSE stream ends), and a
// re-subscription against the restarted coordinator's recovered job
// receives events again. This is the event-stream half of the restart
// contract: no subscriber hangs forever on a dead process's hub.
func TestSSESubscribersReconnectAcrossRestart(t *testing.T) {
	root := t.TempDir()
	s1 := faultCoordinator(t, root)
	st, err := s1.Submit(faultSpecs("uniform"))
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.lookup(st.ID)
	lB, err := s1.lease(j1, "w0")
	if err != nil {
		t.Fatal(err)
	}
	ch, closed, cancelSub := j1.events().subscribe()
	defer cancelSub()
	if closed {
		t.Fatal("hub closed while job is live")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Shutdown(ctx)

	// The old stream ends: the channel closes (after buffered snapshots).
	drained := make(chan struct{})
	go func() {
		for range ch {
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber not released by the dying coordinator")
	}

	// Reconnect: the recovered job has a fresh hub that publishes again.
	s2 := faultCoordinator(t, root)
	defer func() { s2.Shutdown(ctx) }()
	j2, ok := s2.lookup(st.ID)
	if !ok {
		t.Fatal("job not recovered")
	}
	ch2, closed2, cancelSub2 := j2.events().subscribe()
	defer cancelSub2()
	if closed2 {
		t.Fatal("recovered job's hub is closed")
	}
	if _, err := s2.heartbeat(j2, lB.Shard, lB.Token, 3); err != nil {
		t.Fatalf("heartbeat after restart: %v", err)
	}
	select {
	case got := <-ch2:
		if got.State != StateRunning {
			t.Fatalf("reconnected subscriber got %+v", got)
		}
		requireHolder(t, s2, j2, lB.Shard, "w0")
	case <-time.After(5 * time.Second):
		t.Fatal("reconnected subscriber received no event")
	}
}

// TestConcurrentHandInsJournalInOrder: two goroutines hand in different
// shards of one coordinator-only job at the same moment. The crash hook,
// used here as a barrier, holds each hand-in at the store-absorb boundary
// until the other one has absorbed too, so both journal after both
// absorbs, in whichever order they take the job lock. The recorded
// counts they journal must still never go backwards: a restart over the
// same root replays the WAL without discarding it, and the job finishes
// byte-identical to RunGrid.
func TestConcurrentHandInsJournalInOrder(t *testing.T) {
	want := directSummary(t, faultSpecs("uniform"), faultCurvePoints)
	root := t.TempDir()
	newCoordinator := func() *Server { // 6 grid jobs in 3 shards
		s, err := New(Options{StoreRoot: root, Workers: -1, ShardSize: 2, CurvePoints: faultCurvePoints, LeaseTTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := newCoordinator()
	st, err := s1.Submit(faultSpecs("uniform"))
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.lookup(st.ID)
	leases := make(map[int]Lease)
	logs := make(map[int][]byte)
	for {
		l, err := s1.lease(j1, "w")
		if errors.Is(err, ErrNoLease) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		leases[l.Shard] = l
		logs[l.Shard] = runLeasedShard(t, t.TempDir(), l)
	}
	if len(leases) != 3 {
		t.Fatalf("leased %d shards, want 3", len(leases))
	}

	var arrived atomic.Int32
	both := make(chan struct{})
	s1.crashHook = func(p crashPoint) {
		if p != crashPostStoreAbsorb {
			return
		}
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			t.Error("the other hand-in never reached the store-absorb boundary: hand-ins are serialised")
		}
	}
	start := make(chan struct{})
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = s1.completeShard(j1, i, leases[i].Token, fmt.Sprintf("w%d", i), "", bytes.NewReader(logs[i]))
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("hand-in of shard %d: %v", i, err)
		}
	}
	if got := j1.status(); got.State != StateRunning || got.Done != 4 {
		t.Fatalf("after two concurrent hand-ins: %+v, want running with 4 recorded", got)
	}
	// Shard 2's lease is live, so the WAL outlives a graceful shutdown.
	s1.Shutdown(t.Context())

	s2 := newCoordinator()
	defer s2.Shutdown(t.Context())
	if n := s2.met.walDiscarded.Value(); n != 0 {
		t.Fatalf("restart discarded %d lease WALs, want 0", n)
	}
	if s2.met.walReplayed.Value() == 0 {
		t.Fatal("restart replayed no WAL records")
	}
	j2, _ := s2.lookup(st.ID)
	shards := s2.shardStatuses(j2)
	if len(shards) != 3 || shards[0].State != "done" || shards[1].State != "done" || shards[2].State != "leased" {
		t.Fatalf("recovered shards = %+v, want done, done, leased", shards)
	}
	if st, err := s2.completeShard(j2, 2, leases[2].Token, "w2", "", bytes.NewReader(logs[2])); err != nil || st.State != StateDone {
		t.Fatalf("last hand-in after the restart: %+v, %v", st, err)
	}
	if got := summaryBytes(t, s2, j2); !bytes.Equal(got, want) {
		t.Fatalf("summary after concurrent hand-ins differs from RunGrid:\n got:\n%s\nwant:\n%s", got, want)
	}
}
