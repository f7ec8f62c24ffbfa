package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"obm/internal/sim"
	"obm/internal/wal/waltest"
)

// The deterministic fault-injection harness.
//
// For every crash point (see crashPoint in wal.go) the sweep drives a
// full fleet run against a coordinator armed to die — panic through
// crashHook — at exactly that persistence boundary, "restarts" it (a
// fresh Server over the same store root, exactly what a process restart
// does), finishes the run, and requires the final summary.csv to be
// byte-identical to an uninterrupted single-process RunGrid of the same
// grid. The driver is single-threaded and the crash points are reached
// by construction (a stranded lease forces a requeue, a failed partial
// upload forces an absorb, full uploads force completions), so every
// sweep run exercises every recovery path deterministically — no timing,
// no sleeps, no luck.

// crashSignal is the sentinel panic value crashHook throws; anything else
// escaping a coordinator call is a real bug and re-panics.
type crashSignal struct{ point crashPoint }

// armCrash makes s die at the next occurrence of p. Returns the fired
// flag so the sweep can assert the point actually occurred.
func armCrash(s *Server, p crashPoint) *atomic.Bool {
	fired := new(atomic.Bool)
	s.crashHook = func(got crashPoint) {
		if got == p && fired.CompareAndSwap(false, true) {
			panic(crashSignal{got})
		}
	}
	return fired
}

// crashing runs one coordinator call, converting an injected crash into a
// boolean. The crashed coordinator object is abandoned afterwards, like a
// dead process — the store root is the only thing that survives.
func crashing(t *testing.T, f func()) (crashed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	f()
	return false
}

// faultFamilies are the four paper trace families the sweep runs against.
var faultFamilies = []string{"uniform", "facebook-database", "microsoft", "phase-shift"}

// faultSpecs is a small grid (8 jobs → 3 shards at ShardSize 3) for one
// family.
func faultSpecs(family string) []sim.ScenarioSpec {
	return []sim.ScenarioSpec{{
		Name: "fault-" + family, Family: family,
		Racks: 8, Requests: 600, Seed: 77,
		Bs: []int{2, 3}, Reps: 2,
		Algs: []string{"r-bma", "oblivious"},
	}}
}

const (
	faultShardSize   = 3
	faultCurvePoints = 2
)

// faultCoordinator builds a fleet-only server over root. No t.Cleanup
// shutdown: most of these servers are deliberately crashed and abandoned.
func faultCoordinator(t *testing.T, root string) *Server {
	t.Helper()
	s, err := New(Options{
		StoreRoot: root, Workers: -1,
		ShardSize: faultShardSize, CurvePoints: faultCurvePoints,
		LeaseTTL: time.Hour, // expiry is driven explicitly, never by the clock
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildShardLogs executes every shard of the grid once, offline, through
// a throwaway coordinator, and returns the raw shard logs by index. The
// sweep replays these logs against crashed-and-recovered coordinators —
// determinism makes them valid for every attempt.
func buildShardLogs(t *testing.T, family string) map[int][]byte {
	t.Helper()
	s := faultCoordinator(t, t.TempDir())
	defer s.Shutdown(t.Context())
	st, err := s.Submit(faultSpecs(family))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.lookup(st.ID)
	logs := make(map[int][]byte)
	for {
		l, err := s.lease(j, "builder")
		if errors.Is(err, ErrNoLease) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		logs[l.Shard] = runLeasedShard(t, t.TempDir(), l)
	}
	if len(logs) == 0 {
		t.Fatal("no shards leased while building logs")
	}
	return logs
}

// partialUpload cuts a shard log after its first record, the upload of a
// worker that failed mid-shard, and returns the grid job that record holds.
func partialUpload(t *testing.T, log []byte) ([]byte, sim.GridJob) {
	t.Helper()
	cut := waltest.Prefix(t, log, 1)
	var job sim.GridJob
	if err := json.Unmarshal(waltest.Records(t, cut)[0], &job); err != nil {
		t.Fatal(err)
	}
	return cut, job
}

// expireLease rewinds one leased shard's in-memory deadline so the next
// reap requeues it — a TTL lapse without the wall-clock wait. Only the
// in-memory view moves (exactly like real time passing); the WAL still
// holds the original expiry and learns of the lapse from the reap's
// requeue record, the same order production follows.
func expireLease(j *job, shard int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dist != nil && shard < len(j.dist.shards) && j.dist.shards[shard].phase == shardLeased {
		j.dist.shards[shard].expires = time.Now().Add(-time.Hour)
	}
}

// driveFleet runs the scripted fleet protocol against s until the job
// finishes or an injected crash kills the coordinator. The script hits
// every crash point by construction: leases (init + lease), a stranded
// lease reaped on the next request (requeue), heartbeats, one failed
// partial upload (store-absorb + absorb), then full completions
// (store-absorb + complete). Every step tolerates state left behind by a
// previous attempt's crash — unknown tokens, recovered leases, shards
// already done.
func driveFleet(t *testing.T, s *Server, j *job, logs map[int][]byte) (done bool) {
	t.Helper()
	leases := make(map[int]Lease)

	// Lease everything still pending.
	for {
		var l Lease
		var err error
		if crashing(t, func() { l, err = s.lease(j, "driver") }) {
			return false
		}
		if errors.Is(err, ErrNoLease) {
			break
		}
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		leases[l.Shard] = l
	}

	// Strand the lowest-index lease we hold, then touch the coordinator:
	// the reap requeues it (journaled) and the same call re-grants it.
	doomed := -1
	for k := range leases {
		if doomed == -1 || k < doomed {
			doomed = k
		}
	}
	if doomed >= 0 {
		expireLease(j, doomed)
		var l Lease
		var err error
		if crashing(t, func() { l, err = s.lease(j, "driver") }) {
			return false
		}
		if err == nil {
			leases[l.Shard] = l
		} else if !errors.Is(err, ErrNoLease) {
			t.Fatalf("re-lease after expiry: %v", err)
		}
	}

	// Heartbeat every lease we know the token for.
	for k, l := range leases {
		var err error
		if crashing(t, func() { _, err = s.heartbeat(j, k, l.Token, 1) }) {
			return false
		}
		if err != nil && !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("heartbeat shard %d: %v", k, err)
		}
	}

	// One failed partial upload: the first record of the doomed shard's
	// log under its current token — absorbed, then requeued.
	if doomed >= 0 {
		half, job := partialUpload(t, logs[doomed])
		tok := leases[doomed].Token
		var err error
		if crashing(t, func() { _, err = s.completeShard(j, doomed, tok, "driver", "injected failure", bytes.NewReader(half)) }) {
			return false
		}
		if err != nil {
			t.Fatalf("partial upload: %v", err)
		}
		if _, ok := j.store.Lookup(job); !ok {
			t.Fatalf("partial upload of shard %d absorbed nothing (%s missing)", doomed, job)
		}
	}

	// Full completions for every shard, in index order. Tokens are
	// irrelevant for complete uploads — the store's verdict decides —
	// so attempts after a crash need not own the recovered leases.
	for k := 0; k < len(logs); k++ {
		tok := leases[k].Token
		var err error
		if crashing(t, func() { _, err = s.completeShard(j, k, tok, "driver", "", bytes.NewReader(logs[k])) }) {
			return false
		}
		if err != nil {
			t.Fatalf("complete shard %d: %v", k, err)
		}
	}

	st := j.status()
	if st.State != StateDone {
		t.Fatalf("all shards uploaded but job is %+v", st)
	}
	return true
}

// TestFaultInjectionSweep is the acceptance harness: for every family and
// every crash point, kill the coordinator at that point mid-run, restart
// it over the same root, finish the run, and require the summary to be
// byte-identical to the uninterrupted reference; then once more with a
// local worker's lease outstanding at the crash (crashWithLocalLease). In
// -short mode (the race job) only the uniform family runs; the dedicated
// smoke job runs the full 4-family sweep.
func TestFaultInjectionSweep(t *testing.T) {
	families := faultFamilies
	if testing.Short() {
		families = families[:1]
	}
	for _, family := range families {
		family := family
		t.Run(family, func(t *testing.T) {
			want := directSummary(t, faultSpecs(family), faultCurvePoints)
			logs := buildShardLogs(t, family)
			for _, point := range crashPoints {
				point := point
				t.Run(string(point), func(t *testing.T) {
					root := t.TempDir()
					s := faultCoordinator(t, root)
					st, err := s.Submit(faultSpecs(family))
					if err != nil {
						t.Fatal(err)
					}
					j, _ := s.lookup(st.ID)
					fired := armCrash(s, point)

					restarts := 0
					for !driveFleet(t, s, j, logs) {
						if restarts++; restarts > 3 {
							t.Fatalf("more than %d crashes for a single armed point", restarts)
						}
						s = faultCoordinator(t, root) // the restart
						var ok bool
						if j, ok = s.lookup(st.ID); !ok {
							t.Fatal("job lost across restart")
						}
					}
					if !fired.Load() {
						t.Fatalf("crash point %s never fired: the sweep is not covering it", point)
					}
					if restarts != 1 {
						t.Fatalf("restarts = %d, want exactly 1", restarts)
					}
					if s.met.walReplayed.Value() == 0 && point != crashPostInit {
						t.Fatalf("recovered coordinator replayed no WAL records after %s", point)
					}

					got := summaryBytes(t, s, j)
					if !bytes.Equal(got, want) {
						t.Fatalf("summary after crash at %s differs from uninterrupted run:\n--- recovered\n%s--- direct\n%s", point, got, want)
					}
					s.Shutdown(t.Context())
				})
			}
			t.Run("local-lease", func(t *testing.T) { crashWithLocalLease(t, family, logs, want) })
		})
	}
}

// crashWithLocalLease is the sweep's local-worker leg: the coordinator
// dies while a fleet worker holds one shard and its own local worker
// another. The driver takes the second lease under the local worker's
// name — recovery sees only the journaled holder, so the crash leaves
// exactly the WAL a local worker's lease leaves. After the restart (TTL
// still one hour) the fleet lease is re-armed, but the local worker died
// with the coordinator, so its shard must be leasable at once.
func crashWithLocalLease(t *testing.T, family string, logs map[int][]byte, want []byte) {
	root := t.TempDir()
	s := faultCoordinator(t, root)
	st, err := s.Submit(faultSpecs(family))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.lookup(st.ID)
	fleet, err := s.lease(j, "driver")
	if err != nil {
		t.Fatal(err)
	}
	local, err := s.lease(j, localWorkerPrefix+"0")
	if err != nil {
		t.Fatal(err)
	}
	fired := armCrash(s, crashPostHeartbeat)
	if !crashing(t, func() { s.heartbeat(j, local.Shard, local.Token, 1) }) || !fired.Load() {
		t.Fatal("the local worker's heartbeat did not crash the coordinator")
	}

	s = faultCoordinator(t, root)
	j, _ = s.lookup(st.ID)
	if s.met.walReplayed.Value() == 0 || s.met.walRecoveredLeases.Value() != 1 {
		t.Fatalf("restart replayed %d WAL records and re-armed %d leases, want >0 and 1 (the fleet's)",
			s.met.walReplayed.Value(), s.met.walRecoveredLeases.Value())
	}
	requireHolder(t, s, j, fleet.Shard, "driver")
	l, err := s.lease(j, "driver")
	if err != nil || l.Shard != local.Shard {
		t.Fatalf("first lease after the restart = %+v, %v; want the dead local lease's shard %d", l, err, local.Shard)
	}
	if _, err := s.heartbeat(j, local.Shard, local.Token, 2); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("the dead local lease's heartbeat: %v, want ErrLeaseLost", err)
	}
	if !driveFleet(t, s, j, logs) {
		t.Fatal("crash with no crash point armed")
	}
	if got := summaryBytes(t, s, j); !bytes.Equal(got, want) {
		t.Fatalf("summary after a crash with a local lease differs from uninterrupted run:\n--- recovered\n%s--- direct\n%s", got, want)
	}
	s.Shutdown(t.Context())
}

// summaryBytes reads the job's rendered summary, rendering it first if
// the run finished across a crash that skipped the render step.
func summaryBytes(t *testing.T, s *Server, j *job) []byte {
	t.Helper()
	path := filepath.Join(j.dir, "summary.csv")
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if err := s.renderJob(j); err != nil {
			t.Fatalf("rendering recovered job: %v", err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestFaultInjectionDoubleCrash arms two successive crashes (the second
// on the recovered coordinator) at the two most delicate points — after a
// store absorb, before the lease table moved, then after a shard
// completed, which no WAL record marks — and still requires
// byte-identity. Recovery must be as crash-tolerant as the original run.
func TestFaultInjectionDoubleCrash(t *testing.T) {
	family := "uniform"
	want := directSummary(t, faultSpecs(family), faultCurvePoints)
	logs := buildShardLogs(t, family)

	root := t.TempDir()
	s := faultCoordinator(t, root)
	st, err := s.Submit(faultSpecs(family))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.lookup(st.ID)

	points := []crashPoint{crashPostStoreAbsorb, crashPostComplete}
	armed := 0
	fired := armCrash(s, points[armed])
	restarts := 0
	for !driveFleet(t, s, j, logs) {
		if !fired.Load() {
			t.Fatal("crash without the armed point firing")
		}
		if restarts++; restarts > 4 {
			t.Fatal("runaway crash loop")
		}
		s = faultCoordinator(t, root)
		var ok bool
		if j, ok = s.lookup(st.ID); !ok {
			t.Fatal("job lost across restart")
		}
		if armed++; armed < len(points) {
			fired = armCrash(s, points[armed])
		}
	}
	if restarts != len(points) {
		t.Fatalf("restarts = %d, want %d", restarts, len(points))
	}
	got := summaryBytes(t, s, j)
	if !bytes.Equal(got, want) {
		t.Fatalf("summary after double crash differs:\n--- recovered\n%s--- direct\n%s", got, want)
	}
	s.Shutdown(t.Context())
}

// faultPointsAreExhaustive pins the sweep to the seam: adding a crash
// point to the server without adding it to the sweep list must fail
// loudly here rather than silently shrink coverage.
func TestFaultPointsAreExhaustive(t *testing.T) {
	want := map[crashPoint]bool{
		crashPostInit: true, crashPostLease: true, crashPostHeartbeat: true,
		crashPostRequeue: true, crashPostStoreAbsorb: true, crashPostAbsorb: true,
		crashPostComplete: true,
	}
	if len(crashPoints) != len(want) {
		t.Fatalf("crashPoints has %d entries, want %d", len(crashPoints), len(want))
	}
	for _, p := range crashPoints {
		if !want[p] {
			t.Fatalf("unknown crash point %q in sweep list", p)
		}
	}
}
