package sim_test

import (
	"fmt"

	"obm/internal/sim"
)

// ExampleRunGrid expands two scenario specs into a (scenario × algorithm
// × b × rep) job grid and executes it on the worker pool with streamed,
// bounded-memory replay. Costs are deterministic under the seed contract,
// so the aggregated row shapes are stable.
func ExampleRunGrid() {
	specs := []sim.ScenarioSpec{
		{
			Name: "uniform-demo", Family: "uniform",
			Racks: 8, Requests: 2000, Seed: 1,
			Bs: []int{2}, Reps: 2,
			Algs: []string{"r-bma", "oblivious"},
		},
		{
			Name: "hotspot-demo", Family: "hotspot",
			Racks: 8, Requests: 2000, Seed: 2,
			Bs: []int{2}, Reps: 2,
			Params: map[string]float64{"hotspots": 3},
		},
	}
	res, err := sim.RunGrid(specs, sim.GridOptions{Workers: 2})
	if err != nil {
		panic(err)
	}
	for _, r := range res.Rows {
		fmt.Printf("%s %s b=%d reps=%d\n", r.Scenario, r.Alg, r.B, r.Routing.N)
	}
	// Output:
	// uniform-demo r-bma b=2 reps=2
	// uniform-demo oblivious b=0 reps=2
	// hotspot-demo r-bma b=2 reps=2
	// hotspot-demo bma b=2 reps=2
	// hotspot-demo oblivious b=0 reps=2
}

// ExamplePlanGrid shows the deterministic grid expansion that sharding
// and run stores are built on: job identities depend only on the specs.
func ExamplePlanGrid() {
	specs := []sim.ScenarioSpec{{
		Name: "demo", Family: "uniform",
		Racks: 8, Requests: 1000, Seed: 1,
		Bs: []int{2, 4}, Reps: 2, Algs: []string{"bma"},
	}}
	plan, err := sim.PlanGrid(specs)
	if err != nil {
		panic(err)
	}
	for i, j := range plan.Jobs {
		fmt.Printf("job %d: %s (cell %d)\n", i, j, plan.CellOf[i])
	}
	// Output:
	// job 0: demo/bma(b=2)/rep=0 (cell 0)
	// job 1: demo/bma(b=2)/rep=1 (cell 0)
	// job 2: demo/bma(b=4)/rep=0 (cell 1)
	// job 3: demo/bma(b=4)/rep=1 (cell 1)
}

// ExampleGridPlan_ShardCuts cuts a plan into shards of about equal
// request totals: shard k starts at the first job whose running request
// total reaches k/count of the plan's, so a shard's jobs of one scenario
// replay one generated trace.
func ExampleGridPlan_ShardCuts() {
	specs := []sim.ScenarioSpec{
		{Name: "big", Family: "uniform", Racks: 8, Requests: 3000, Seed: 1, Bs: []int{2}, Reps: 2, Algs: []string{"bma"}},
		{Name: "small", Family: "uniform", Racks: 8, Requests: 1000, Seed: 2, Bs: []int{2}, Reps: 4, Algs: []string{"bma"}},
	}
	plan, err := sim.PlanGrid(specs)
	if err != nil {
		panic(err)
	}
	cuts := plan.ShardCuts(2)
	for k := range 2 {
		fmt.Printf("shard %d: %v\n", k, plan.Jobs[cuts[k]:cuts[k+1]])
	}
	// Output:
	// shard 0: [big/bma(b=2)/rep=0 big/bma(b=2)/rep=1]
	// shard 1: [small/bma(b=2)/rep=0 small/bma(b=2)/rep=1 small/bma(b=2)/rep=2 small/bma(b=2)/rep=3]
}
