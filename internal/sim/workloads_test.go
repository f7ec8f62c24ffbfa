package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"obm/internal/trace"
)

// setupFamily is a Facebook-database workload family whose streams count
// their setups: a stream the builder made counts each Reset, and its
// forks count nothing. Validation builds a stream and never resets it, a
// job replaying a fresh stream resets it once, and a prototype is reset
// once and then only forked, so setupCount counts the scenario setups a
// code path made.
const setupFamily = "test-setup-counting"

var setupCount atomic.Int64

type setupCounter struct{ trace.Stream }

func (s setupCounter) Reset()             { setupCount.Add(1); s.Stream.Reset() }
func (s setupCounter) Fork() trace.Stream { return s.Stream.(trace.Forker).Fork() }

func init() {
	RegisterFamily(setupFamily, func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec); err != nil {
			return nil, err
		}
		p := trace.FacebookPreset(trace.Database, spec.Racks, spec.Seed)
		p.Requests = spec.Requests
		st, err := trace.NewFacebookStream(p)
		if err != nil {
			return nil, err
		}
		return setupCounter{st}, nil
	})
}

// setupSpecs is a two-scenario grid on the setup-counting family: 5 + 3
// cells of 2 reps, 16 jobs. Cut into two shards, x's 30,000 requests
// straddle the cut at 21,000: shard 0 runs 7 of x's jobs, shard 1 the
// other 3 and all of y's.
func setupSpecs() []ScenarioSpec {
	return []ScenarioSpec{
		{Name: "x", Family: setupFamily, Racks: 12, Requests: 3000, Seed: 1, Bs: []int{2, 3}, Reps: 2},
		{Name: "y", Family: setupFamily, Racks: 10, Requests: 2000, Seed: 2, Bs: []int{2}, Reps: 2,
			Algs: []string{"r-bma", "bma", "oblivious"}},
	}
}

// runShards runs the grid as shards 0/2 and 1/2 with w (nil: each run
// makes its own) and returns every outcome, elapsed times zeroed.
func runShards(t *testing.T, specs []ScenarioSpec, w *Workloads) map[GridJob]JobOutcome {
	t.Helper()
	var mu sync.Mutex
	out := map[GridJob]JobOutcome{}
	for shard := 0; shard < 2; shard++ {
		_, err := RunGrid(specs, GridOptions{
			Workers: 2, CurvePoints: 4, Shard: shard, Shards: 2, Workloads: w,
			Persist: func(j GridJob, o JobOutcome) error {
				o.ElapsedMS = 0
				mu.Lock()
				out[j] = o
				mu.Unlock()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestWorkloadsSharedAcrossShards: two shard runs handed one Workloads
// set each scenario up once between them, and their outcomes are the
// outcomes of the same shards run without it.
func TestWorkloadsSharedAcrossShards(t *testing.T) {
	specs := setupSpecs()
	plan, err := PlanGrid(specs)
	if err != nil {
		t.Fatal(err)
	}
	// One setup per scenario per shard run that holds jobs of it.
	perRun := 0
	for shard := range 2 {
		seen := map[string]bool{}
		for _, j := range plan.ShardSlice(shard, 2) {
			seen[j.Scenario] = true
		}
		perRun += len(seen)
	}
	if perRun != len(specs)+1 {
		t.Fatalf("the shards hold %d (shard, scenario) pairs, want %d: one scenario in both", perRun, len(specs)+1)
	}
	setupCount.Store(0)
	want := runShards(t, specs, nil)
	if len(want) != len(plan.Jobs) {
		t.Fatalf("shards ran %d jobs, want %d", len(want), len(plan.Jobs))
	}
	if n := setupCount.Load(); n != int64(perRun) {
		t.Fatalf("shard runs without shared workloads made %d setups, want %d (one per scenario per run)", n, perRun)
	}

	setupCount.Store(0)
	got := runShards(t, specs, NewWorkloads(specs))
	if n := setupCount.Load(); n != int64(len(specs)) {
		t.Fatalf("shard runs sharing workloads made %d setups, want %d (one per scenario)", n, len(specs))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("outcomes with shared workloads differ from outcomes without")
	}
}

// TestWorkloadsMatchSpecs: a grid refuses Workloads built for other
// specs, and accepts ones built for the same specs after a JSON round
// trip or with defaults spelled out.
func TestWorkloadsMatchSpecs(t *testing.T) {
	specs := countingSpecs(8)
	other := countingSpecs(8)
	other[1].Seed++
	_, err := RunGrid(specs, GridOptions{Workers: 1, Workloads: NewWorkloads(other)})
	if err == nil || !strings.Contains(err.Error(), "built for other specs") {
		t.Fatalf("RunGrid with workloads of other specs: err = %v", err)
	}

	blob, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	var tripped []ScenarioSpec
	if err := json.Unmarshal(blob, &tripped); err != nil {
		t.Fatal(err)
	}
	spelled := countingSpecs(8)
	for i := range spelled {
		spelled[i] = spelled[i].Normalize()
		spelled[i].Params = map[string]float64{}
	}
	for name, w := range map[string]*Workloads{"round trip": NewWorkloads(tripped), "normalized": NewWorkloads(spelled)} {
		if _, err := RunGrid(specs, GridOptions{Workers: 1, Workloads: w}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	w := NewWorkloads(specs)
	if _, err := w.Source("no-such-scenario"); err == nil {
		t.Error("Source of an unknown scenario succeeded")
	}
	if _, err := w.Model("no-such-scenario"); err == nil {
		t.Error("Model of an unknown scenario succeeded")
	}
}
