package work

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"obm/internal/report"
	"obm/internal/serve"
	"obm/internal/sim"
	"obm/internal/trace"
)

// setupFamily is a Facebook-database workload family whose streams count
// their setups: a stream the builder made counts each Reset, and its
// forks count nothing. Validation never resets a stream and a prototype
// is reset once, so setupCount counts the scenario setups made.
const setupFamily = "work-test-setup-counting"

var setupCount atomic.Int64

type setupCounter struct{ trace.Stream }

func (s setupCounter) Reset()             { setupCount.Add(1); s.Stream.Reset() }
func (s setupCounter) Fork() trace.Stream { return s.Stream.(trace.Forker).Fork() }

func init() {
	sim.RegisterFamily(setupFamily, func(spec sim.ScenarioSpec) (trace.Stream, error) {
		p := trace.FacebookPreset(trace.Database, spec.Racks, spec.Seed)
		p.Requests = spec.Requests
		st, err := trace.NewFacebookStream(p)
		if err != nil {
			return nil, err
		}
		return setupCounter{st}, nil
	})
}

// setupSpecs is two scenarios of the setup-counting family, 12 grid jobs.
func setupSpecs() []sim.ScenarioSpec {
	return []sim.ScenarioSpec{
		{Name: "p", Family: setupFamily, Racks: 12, Requests: 2000, Seed: 1, Bs: []int{2, 3}, Reps: 2, Algs: []string{"r-bma", "bma"}},
		{Name: "q", Family: setupFamily, Racks: 10, Requests: 2000, Seed: 2, Bs: []int{2}, Reps: 2, Algs: []string{"r-bma", "bma"}},
	}
}

// TestWorkerSetsUpEachScenarioOncePerJob: a worker draining a job of six
// shards sets each scenario up once, and drops the job's workloads once
// the coordinator lists the job as done.
func TestWorkerSetsUpEachScenarioOncePerJob(t *testing.T) {
	s, err := serve.New(serve.Options{StoreRoot: t.TempDir(), Workers: -1, ShardSize: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	setupCount.Store(0)
	st, err := s.Submit(setupSpecs())
	if err != nil {
		t.Fatal(err)
	}
	r := newWorker(t, ts.URL, "sharer", 2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan int, 1)
	go func() {
		n, _ := r.Run(ctx)
		ran <- n
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got serve.Status
		getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &got)
		if got.State == serve.StateDone {
			break
		}
		if got.State == serve.StateFailed || time.Now().After(deadline) {
			t.Fatalf("job ended %s: %s", got.State, got.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if n := <-ran; n != 6 {
		t.Fatalf("worker completed %d shards, want 6", n)
	}
	if n := setupCount.Load(); n != 2 {
		t.Fatalf("the worker made %d scenario setups for a 2-scenario job, want 2", n)
	}

	if _, err := r.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	left := len(r.workloads)
	r.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d job workloads kept after the job is done, want 0", left)
	}
}

// TestForeignLeaseLeavesNoWorkloads: a lease whose specs do not hash to
// its job id is refused, and the workloads made for it do not fail the
// job's next, valid lease.
func TestForeignLeaseLeavesNoWorkloads(t *testing.T) {
	specs := setupSpecs()
	m, err := report.NewManifest("experiments serve", specs, 0, report.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	var uploads atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if bytes.HasSuffix([]byte(r.URL.Path), []byte("/complete")) {
			uploads.Add(1)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	r := newWorker(t, ts.URL, "foreign", 1, nil)

	plan, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	valid := serve.Lease{JobID: m.SpecHash, Shard: 0, Shards: 2, Jobs: len(plan.ShardSlice(0, 2)), Token: "tok", TTLMS: 60000, Name: m.Name, Specs: m.Specs}
	foreign := valid
	foreign.Specs = append([]sim.ScenarioSpec(nil), m.Specs...)
	foreign.Specs[0].Seed++
	if r.runShard(context.Background(), foreign) {
		t.Fatal("a lease with foreign specs ran")
	}
	if !r.runShard(context.Background(), valid) {
		t.Fatal("the valid lease after a foreign one did not complete")
	}
	if n := uploads.Load(); n != 1 {
		t.Fatalf("%d uploads, want 1", n)
	}
}
