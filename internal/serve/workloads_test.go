package serve

import (
	"sync/atomic"
	"testing"

	"obm/internal/sim"
	"obm/internal/trace"
)

// setupFamily is a Facebook-database workload family whose streams count
// their setups: a stream the builder made counts each Reset, and its
// forks count nothing. Validation never resets a stream and a prototype
// is reset once, so setupCount counts the scenario setups made.
const setupFamily = "serve-test-setup-counting"

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

// TestLocalWorkersShareJobWorkloads: two local workers draining a
// two-shard job set each scenario up once between them, and the finished
// job drops its workloads with its store.
func TestLocalWorkersShareJobWorkloads(t *testing.T) {
	s, ts := newTestServer(t, Options{StoreRoot: t.TempDir(), Workers: 2, GridWorkers: 1, ShardSize: 6})
	specs := []sim.ScenarioSpec{
		{Name: "p", Family: setupFamily, Racks: 12, Requests: 2000, Seed: 1, Bs: []int{2, 3}, Reps: 2, Algs: []string{"r-bma", "bma"}},
		{Name: "q", Family: setupFamily, Racks: 10, Requests: 2000, Seed: 2, Bs: []int{2}, Reps: 2, Algs: []string{"r-bma", "bma"}},
	}
	setupCount.Store(0)
	st, _ := submit(t, ts, specs)
	waitState(t, ts, st.ID, StateDone)
	if n := setupCount.Load(); n != int64(len(specs)) {
		t.Fatalf("local workers made %d scenario setups, want %d", n, len(specs))
	}
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.dist.shards) != 2 {
		t.Fatalf("job has %d shards, want 2", len(j.dist.shards))
	}
	if j.store != nil || j.workloads != nil {
		t.Fatal("a finished job still holds its store or workloads")
	}
}
