package sim

import (
	"runtime"
	"sync/atomic"
	"testing"

	"obm/internal/trace"
)

// countingFamily is a uniform-traffic workload family whose builder
// counts its calls: every trace generator a code path builds shows up in
// countingBuilds.
const countingFamily = "test-counting"

var countingBuilds atomic.Int64

func init() {
	RegisterFamily(countingFamily, func(spec ScenarioSpec) (trace.Stream, error) {
		countingBuilds.Add(1)
		if err := checkParams(spec); err != nil {
			return nil, err
		}
		return trace.NewUniformStream(spec.Racks, spec.Requests, spec.Seed)
	})
}

// countingSpecs is a two-scenario grid on the counting family: 3 + 3
// cells, 12 jobs.
func countingSpecs(racks int) []ScenarioSpec {
	return []ScenarioSpec{
		{Name: "a", Family: countingFamily, Racks: racks, Requests: 500, Seed: 1, Bs: []int{2, 3}, Reps: 2,
			Algs: []string{"r-bma", "oblivious"}},
		{Name: "b", Family: countingFamily, Racks: racks, Requests: 500, Seed: 2, Bs: []int{2}, Reps: 2},
	}
}

// TestPlanGridBuildsNothing: planning builds no trace generator, and a
// grid run builds one per spec (validation) plus one per group — here one
// per scenario, whose jobs all read one source.
func TestPlanGridBuildsNothing(t *testing.T) {
	specs := countingSpecs(8)
	countingBuilds.Store(0)
	plan, err := PlanGrid(specs)
	if err != nil {
		t.Fatal(err)
	}
	if n := countingBuilds.Load(); n != 0 {
		t.Fatalf("PlanGrid built %d generators, want 0", n)
	}
	if len(plan.Jobs) != 12 {
		t.Fatalf("plan has %d jobs, want 12", len(plan.Jobs))
	}

	if _, err := RunGrid(specs, GridOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if n, want := countingBuilds.Load(), int64(4); n != want {
		t.Fatalf("RunGrid built %d generators, want %d (one per spec, one per group)", n, want)
	}

	// Resume every other job: only the rest replays.
	outcomes := make(map[GridJob]JobOutcome, len(plan.Jobs))
	for i, j := range plan.Jobs {
		if i%2 == 0 {
			outcomes[j] = JobOutcome{Routing: 1}
		}
	}
	countingBuilds.Store(0)
	var executed int
	_, err = RunGrid(specs, GridOptions{
		Workers: 2,
		Lookup: func(j GridJob) (JobOutcome, bool) {
			o, ok := outcomes[j]
			return o, ok
		},
		Progress: func(int, int, GridJob, error) { executed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != len(plan.Jobs)-len(outcomes) {
		t.Fatalf("executed %d jobs, want %d", executed, len(plan.Jobs)-len(outcomes))
	}
	if n, want := countingBuilds.Load(), int64(4); n != want {
		t.Fatalf("resumed RunGrid built %d generators, want %d (one per spec, one per group)", n, want)
	}
}

// TestPlanGridCostIndependentOfRacks: planning reads spec fields only, so
// it allocates the same for a 50-rack and a 400-rack fat-tree — as does a
// fully resumed grid run, which builds no cost model.
func TestPlanGridCostIndependentOfRacks(t *testing.T) {
	uniform := func(racks int) []ScenarioSpec {
		return []ScenarioSpec{{Name: "u", Family: "uniform", Racks: racks, Requests: 1000, Seed: 1, Bs: []int{2, 4}, Reps: 3}}
	}
	planAllocs := func(racks int) float64 {
		specs := uniform(racks)
		return testing.AllocsPerRun(20, func() {
			if _, err := PlanGrid(specs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := planAllocs(50), planAllocs(400); small != big {
		t.Fatalf("PlanGrid allocs: %v at 50 racks, %v at 400 racks", small, big)
	}

	resumedAllocs := func(racks int) float64 {
		specs := uniform(racks)
		opt := GridOptions{Workers: 1, Lookup: func(GridJob) (JobOutcome, bool) { return JobOutcome{Routing: 1}, true }}
		return testing.AllocsPerRun(5, func() {
			if _, err := RunGrid(specs, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := resumedAllocs(50), resumedAllocs(400); small != big {
		t.Fatalf("fully resumed RunGrid allocs: %v at 50 racks, %v at 400 racks", small, big)
	}
}

// TestModelAllocsIndependentOfRacks: a scenario's cost model is the
// closed-form fat-tree metric, so building one allocates the same at 50
// and at 400 racks; building the fat-tree graph allocates more the larger
// the tree.
func TestModelAllocsIndependentOfRacks(t *testing.T) {
	allocs := func(racks int) float64 {
		spec := ScenarioSpec{Name: "m", Family: "uniform", Racks: racks, Requests: 1, Bs: []int{2}}
		return testing.AllocsPerRun(10, func() { spec.Model() })
	}
	if small, big := allocs(50), allocs(400); small != big {
		t.Fatalf("Model allocs: %v at 50 racks, %v at 400 racks", small, big)
	}
}

// TestValidateBytesLinearInRacks: constructing a workload stream builds no
// table sized by the rack pairs, so for every registered family the bytes
// one Validate allocates grow at most 5× from 100 to 400 racks (linear
// growth is 4×, a racks² table 16×).
func TestValidateBytesLinearInRacks(t *testing.T) {
	validateBytes := func(spec ScenarioSpec) float64 {
		const runs = 20
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, family := range Families() {
		spec := func(racks int) ScenarioSpec {
			return ScenarioSpec{Name: "v", Family: family, Racks: racks, Requests: 1000, Seed: 1, Bs: []int{4}}
		}
		small, big := validateBytes(spec(100)), validateBytes(spec(400))
		if big > 5*small {
			t.Errorf("%s: Validate allocates %.0f B at 100 racks, %.0f B at 400 racks (%.1f×, want <= 5×)",
				family, small, big, big/small)
		}
	}
}

// TestPlanGridChecksWhatItReads: planning rejects every malformed field
// it reads, and leaves the family parameters to Validate.
func TestPlanGridChecksWhatItReads(t *testing.T) {
	for name, edit := range map[string]func(s *ScenarioSpec){
		"no name":         func(s *ScenarioSpec) { s.Name = "" },
		"CSV-unsafe name": func(s *ScenarioSpec) { s.Name = "a\"b" },
		"unknown family":  func(s *ScenarioSpec) { s.Family = "no-such-family" },
		"unknown alg":     func(s *ScenarioSpec) { s.Algs = []string{"no-such-alg"} },
		"no sweep":        func(s *ScenarioSpec) { s.Bs = nil },
		"negative reps":   func(s *ScenarioSpec) { s.Reps = -1 },
		"alpha below 1":   func(s *ScenarioSpec) { s.Alpha = 0.5 },
		"too many shards": func(s *ScenarioSpec) { s.Shards = s.Racks + 1 },
	} {
		specs := countingSpecs(8)
		edit(&specs[0])
		if _, err := PlanGrid(specs); err == nil {
			t.Errorf("%s: PlanGrid accepted it", name)
		}
	}

	specs := countingSpecs(8)
	specs[0].Params = map[string]float64{"typo_knob": 1}
	if _, err := PlanGrid(specs); err != nil {
		t.Fatalf("PlanGrid checked family params: %v", err)
	}
	if err := specs[0].Validate(); err == nil {
		t.Fatal("Validate accepted an unknown family param")
	}
}
