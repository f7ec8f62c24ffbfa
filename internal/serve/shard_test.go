package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"obm/internal/obs"
	"obm/internal/report"
	"obm/internal/sim"
	"obm/internal/wal/waltest"
)

// TestRunShardReplacesUnusableShardStore: a shard store is only a resume
// cache, so one that cannot be opened — an empty manifest.json, or a job
// log whose CRC fails — must not block its shard. RunShard logs it,
// removes it and runs the shard afresh; the upload completes the job,
// whose summary is byte-identical to the direct run's.
func TestRunShardReplacesUnusableShardStore(t *testing.T) {
	damages := []struct {
		name  string
		plant func(t *testing.T, dir string, l Lease)
	}{
		{"empty manifest", func(t *testing.T, dir string, _ Lease) {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"CRC-corrupt job log", func(t *testing.T, dir string, l Lease) {
			m, err := report.NewManifest(l.Name, l.Specs, l.CurvePoints, report.Shard{Index: l.Shard, Count: l.Shards})
			if err != nil {
				t.Fatal(err)
			}
			st, err := report.Create(dir, m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Run(sim.GridOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			st.Close()
			// Change the first recorded routing cost's leading digit: the
			// record still parses, only its CRC no longer matches.
			log, err := os.ReadFile(st.LogPath())
			if err != nil {
				t.Fatal(err)
			}
			key := []byte(`"routing":`)
			i := bytes.Index(log, key) + len(key)
			if i < len(key) || log[i] < '1' || log[i] > '9' {
				t.Fatalf("no nonzero routing cost to flip in %q", log)
			}
			log[i] = '1' + (log[i]-'1'+1)%9
			if err := os.WriteFile(st.LogPath(), log, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			s, j := coordinator(t, Options{ShardSize: 5, CurvePoints: 2})
			var logged []string
			for {
				l, err := s.lease(j, "w0")
				if errors.Is(err, ErrNoLease) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				dir := filepath.Join(t.TempDir(), "shard")
				if l.Shard == 0 {
					d.plant(t, dir, l)
				}
				res := RunShard(context.Background(), ShardRun{
					Lease: l,
					Dir:   dir,
					Grid:  sim.GridOptions{Workers: 1},
					Heartbeat: func(_ context.Context, done int) error {
						_, err := s.heartbeat(j, l.Shard, l.Token, done)
						return err
					},
					Complete: func(_ context.Context, log []byte, failMsg string) error {
						_, err := s.completeShard(j, l.Shard, l.Token, "w0", failMsg, bytes.NewReader(log))
						return err
					},
					Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
				})
				if res.Outcome != ShardCompleted || res.CompleteErr != nil {
					t.Fatalf("shard %d: outcome %d, run error %v, hand-in error %v", l.Shard, res.Outcome, res.RunErr, res.CompleteErr)
				}
			}
			if st := j.status(); st.State != StateDone {
				t.Fatalf("job after every shard ran: %+v", st)
			}
			if got, want := summaryBytes(t, s, j), directSummary(t, leaseSpecs(), 2); !bytes.Equal(got, want) {
				t.Fatalf("summary differs from the direct run:\n--- fleet\n%s--- direct\n%s", got, want)
			}
			if !strings.Contains(strings.Join(logged, "\n"), "discarding shard store") {
				t.Fatalf("the replaced shard store was not logged: %q", logged)
			}
		})
	}
}

// TestRunShardRefusesShardRuleSkew: a lease whose job count differs from
// what the worker's own cut gives the shard comes from a coordinator that
// cuts shards by another rule. RunShard refuses it before it creates or
// resumes a shard store, and neither heartbeats nor hands a log in.
func TestRunShardRefusesShardRuleSkew(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 5, CurvePoints: 2})
	l, err := s.lease(j, "w0")
	if err != nil {
		t.Fatal(err)
	}
	l.Jobs++
	dir := filepath.Join(t.TempDir(), "shard")
	res := RunShard(context.Background(), ShardRun{
		Lease: l,
		Dir:   dir,
		Grid:  sim.GridOptions{Workers: 1},
		Heartbeat: func(context.Context, int) error {
			t.Error("a refused shard heartbeats")
			return nil
		},
		Complete: func(context.Context, []byte, string) error {
			t.Error("a refused shard hands a log in")
			return nil
		},
		Logf: t.Logf,
	})
	if res.Outcome != ShardNotRun || res.RunErr == nil || !strings.Contains(res.RunErr.Error(), "shard rule") {
		t.Fatalf("tampered lease: outcome %d, error %v; want ShardNotRun naming the shard rule", res.Outcome, res.RunErr)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a refused shard left %s behind (stat: %v)", dir, err)
	}
}

// TestRunShardKeepsStoreOnFailedHandIn: a shard store outlives a failed
// hand-in with every job of the shard, so the next lease of the shard
// resumes it whole: it executes no grid job, hands in the same records,
// and removes the store once the coordinator has absorbed them. The
// first hand-in is the staged image and the second the file written out
// from it, so the two being equal pins the write-out byte for byte.
func TestRunShardKeepsStoreOnFailedHandIn(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 5, CurvePoints: 2})
	l, err := s.lease(j, "w0")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "shard")
	heartbeat := func(_ context.Context, done int) error {
		_, err := s.heartbeat(j, l.Shard, l.Token, done)
		return err
	}
	var first []byte
	res := RunShard(context.Background(), ShardRun{
		Lease:     l,
		Dir:       dir,
		Grid:      sim.GridOptions{Workers: 1},
		Heartbeat: heartbeat,
		Complete: func(_ context.Context, log []byte, _ string) error {
			first = bytes.Clone(log)
			return errors.New("coordinator unreachable")
		},
		Logf: t.Logf,
	})
	if res.Outcome != ShardCompleted || res.CompleteErr == nil || res.Recorded != l.Jobs {
		t.Fatalf("failed hand-in: outcome %d, %d of %d jobs recorded, hand-in error %v", res.Outcome, res.Recorded, l.Jobs, res.CompleteErr)
	}
	st, err := report.Open(dir)
	if err != nil {
		t.Fatalf("the kept shard store does not reopen: %v", err)
	}
	missing, _ := st.Missing()
	if st.Len() != l.Jobs || len(missing) != 0 {
		t.Fatalf("the kept shard store holds %d jobs and misses %d, want all %d", st.Len(), len(missing), l.Jobs)
	}
	st.Close()

	res = RunShard(context.Background(), ShardRun{
		Lease: l,
		Dir:   dir,
		Grid: sim.GridOptions{Workers: 1, Progress: func(_, _ int, job sim.GridJob, _ error) {
			t.Errorf("the resumed shard executed %s", job)
		}},
		Heartbeat: heartbeat,
		Complete: func(_ context.Context, blob []byte, failMsg string) error {
			if !bytes.Equal(blob, first) {
				t.Errorf("the resumed hand-in carries other records:\n%q\nwant\n%q", blob, first)
			}
			_, err := s.completeShard(j, l.Shard, l.Token, "w0", failMsg, bytes.NewReader(blob))
			return err
		},
		Logf: t.Logf,
	})
	if res.Outcome != ShardCompleted || res.CompleteErr != nil {
		t.Fatalf("resumed shard: outcome %d, run error %v, hand-in error %v", res.Outcome, res.RunErr, res.CompleteErr)
	}
	if st := j.status(); st.Done != l.Jobs {
		t.Fatalf("coordinator records %d jobs after the hand-in, want %d", st.Done, l.Jobs)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a cleanly handed-in shard left %s behind (stat: %v)", dir, err)
	}
}

// TestRunShardKeepsStoreOnLostLease: a revoked lease stops the shard
// without a hand-in, and the store it keeps reopens with every job it
// recorded, for a later lease of the shard to resume.
func TestRunShardKeepsStoreOnLostLease(t *testing.T) {
	s, j := coordinator(t, Options{ShardSize: 5, CurvePoints: 2})
	l, err := s.lease(j, "w0")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "shard")
	res := RunShard(context.Background(), ShardRun{
		Lease:      l,
		Dir:        dir,
		Grid:       sim.GridOptions{Workers: 1},
		Heartbeat:  func(context.Context, int) error { return ErrLeaseLost },
		BeatPerJob: true,
		Complete: func(context.Context, []byte, string) error {
			t.Error("a shard whose lease was lost handed a log in")
			return nil
		},
		Logf: t.Logf,
	})
	if res.Outcome != ShardLeaseLost || res.Recorded == 0 {
		t.Fatalf("lost lease: outcome %d with %d jobs recorded; want ShardLeaseLost after a recorded job", res.Outcome, res.Recorded)
	}
	st, err := report.Open(dir)
	if err != nil {
		t.Fatalf("the kept shard store does not reopen: %v", err)
	}
	defer st.Close()
	if st.Len() != res.Recorded {
		t.Fatalf("the kept shard store holds %d jobs, RunShard recorded %d", st.Len(), res.Recorded)
	}
}

// fullShardLease leases the whole grid of specs as one shard, the way a
// coordinator would, with the given lease TTL.
func fullShardLease(t *testing.T, specs []sim.ScenarioSpec, ttl time.Duration) Lease {
	t.Helper()
	m, err := report.NewManifest("shard-test", specs, 2, report.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return Lease{
		JobID: m.SpecHash, Shards: 1, Jobs: len(plan.Jobs), Token: "tok", TTLMS: ttl.Milliseconds(),
		Name: m.Name, CurvePoints: m.CurvePoints, Specs: m.Specs,
	}
}

// TestRunShardStagesCleanShardInMemory: a shard handed in cleanly within
// its first heartbeat tick keeps its store, checkpoints included, in
// memory: r.Dir exists neither mid-run nor after the hand-in, and the
// handed-in image holds every job of the shard.
func TestRunShardStagesCleanShardInMemory(t *testing.T) {
	specs := []sim.ScenarioSpec{{
		Name: "staged", Family: "uniform", Racks: 8, Requests: 5000, Seed: 5,
		Bs: []int{2}, Reps: 3, Algs: []string{"r-bma", "oblivious"},
	}}
	l := fullShardLease(t, specs, time.Hour)
	dir := filepath.Join(t.TempDir(), "shard")
	noDir := func(when string) {
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: the shard store is on disk at %s (stat: %v)", when, dir, err)
		}
	}
	var handedIn []byte
	met := sim.NewMetrics(obs.NewRegistry())
	res := RunShard(context.Background(), ShardRun{
		Lease: l,
		Dir:   dir,
		Grid: sim.GridOptions{Workers: 1, ChunkSize: 256, CheckpointEvery: 1000, Metrics: met,
			Progress: func(int, int, sim.GridJob, error) { noDir("mid-run") }},
		Heartbeat: func(context.Context, int) error { return nil },
		Complete: func(_ context.Context, log []byte, failMsg string) error {
			noDir("at the hand-in")
			handedIn = bytes.Clone(log)
			return nil
		},
		Logf: t.Logf,
	})
	if res.Outcome != ShardCompleted || res.CompleteErr != nil || res.Recorded != l.Jobs {
		t.Fatalf("clean shard: outcome %d, %d of %d jobs recorded, run error %v, hand-in error %v",
			res.Outcome, res.Recorded, l.Jobs, res.RunErr, res.CompleteErr)
	}
	noDir("after the hand-in")
	if n := len(waltest.Records(t, handedIn)); n != l.Jobs {
		t.Fatalf("the handed-in image holds %d records, want %d", n, l.Jobs)
	}
	if met.SaveNS.Summary().Count == 0 {
		t.Fatal("the shard saved no checkpoint, so none was kept in memory")
	}
}

// TestRunShardWritesOutStoreAtFirstTick: a shard that outlives its first
// heartbeat tick (a 30 ms TTL ticks at 10 ms) has its store on disk
// mid-run, and a run of it cancelled after that resumes from disk: the
// next lease executes only the jobs the first run did not record.
func TestRunShardWritesOutStoreAtFirstTick(t *testing.T) {
	spec := func(name string, seed uint64) sim.ScenarioSpec {
		return sim.ScenarioSpec{Name: name, Family: "uniform", Racks: 8, Requests: 1200, Seed: seed,
			Bs: []int{2}, Reps: 2, Algs: []string{"oblivious"}}
	}
	// Two scenarios make two groups, which one grid worker runs in turn:
	// the first group's jobs finish before the second group starts.
	l := fullShardLease(t, []sim.ScenarioSpec{spec("tick-a", 3), spec("tick-b", 4)}, 30*time.Millisecond)
	dir := filepath.Join(t.TempDir(), "shard")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var checked bool
	res := RunShard(ctx, ShardRun{
		Lease: l,
		Dir:   dir,
		Grid: sim.GridOptions{Workers: 1, Progress: func(done, _ int, _ sim.GridJob, _ error) {
			if checked {
				return
			}
			checked = true
			// Hold the grid inside its first finished job until the first
			// tick has written the store out, then stop the run.
			for deadline := time.Now().Add(10 * time.Second); !report.Exists(dir); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("no store on disk 10 s into a shard whose heartbeat ticks every 10 ms")
					break
				}
			}
			log, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
			if err != nil {
				t.Error(err)
			} else if n := len(waltest.Records(t, log)); n != done {
				t.Errorf("mid-run, the job log on disk holds %d records, want %d", n, done)
			}
			cancel()
		}},
		Heartbeat: func(context.Context, int) error { return nil },
		Complete:  func(context.Context, []byte, string) error { return nil },
		Logf:      t.Logf,
	})
	if res.Outcome != ShardHandedOff || res.Recorded == 0 || res.Recorded == l.Jobs {
		t.Fatalf("cancelled shard: outcome %d with %d of %d jobs recorded; want a handoff of part of the shard",
			res.Outcome, res.Recorded, l.Jobs)
	}

	var logged []string
	var executed int
	var handedIn []byte
	res2 := RunShard(context.Background(), ShardRun{
		Lease:     l,
		Dir:       dir,
		Grid:      sim.GridOptions{Workers: 1, Progress: func(int, int, sim.GridJob, error) { executed++ }},
		Heartbeat: func(context.Context, int) error { return nil },
		Complete: func(_ context.Context, log []byte, _ string) error {
			handedIn = bytes.Clone(log)
			return nil
		},
		Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	})
	if res2.Outcome != ShardCompleted || res2.CompleteErr != nil {
		t.Fatalf("resumed shard: outcome %d, run error %v, hand-in error %v", res2.Outcome, res2.RunErr, res2.CompleteErr)
	}
	if !strings.Contains(strings.Join(logged, "\n"), "resuming shard") {
		t.Errorf("the second lease did not resume the store on disk: %q", logged)
	}
	if executed != l.Jobs-res.Recorded {
		t.Errorf("the resumed shard executed %d jobs, want the %d the first run did not record", executed, l.Jobs-res.Recorded)
	}
	if n := len(waltest.Records(t, handedIn)); n != l.Jobs {
		t.Errorf("the resumed hand-in holds %d records, want %d", n, l.Jobs)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a cleanly handed-in shard left %s behind (stat: %v)", dir, err)
	}
}
