package report

import (
	"slices"
	"testing"

	"obm/internal/sim"
)

// TestOneShardRule: GridPlan.ShardSlice, the grid's own shard filter and
// a sharded run store's ownership all apply sim.InShard, so they agree
// on every plan size and shard count.
func TestOneShardRule(t *testing.T) {
	for n := 0; n <= 40; n++ {
		plan := &sim.GridPlan{}
		var specs []sim.ScenarioSpec
		if n > 0 {
			specs = []sim.ScenarioSpec{{Name: "s", Family: "uniform", Racks: 4, Requests: 10, Seed: 1, Bs: []int{2}, Reps: n, Algs: []string{"oblivious"}}}
			var err error
			if plan, err = sim.PlanGrid(specs); err != nil {
				t.Fatal(err)
			}
		}
		for count := 1; count <= 7; count++ {
			for index := range count {
				slice := plan.ShardSlice(index, count)
				m := Manifest{Shard: Shard{Index: index, Count: count}}
				var owned []sim.GridJob
				for i, j := range plan.Jobs {
					if m.ownsJob(i) {
						owned = append(owned, j)
					}
				}
				if !slices.Equal(owned, slice) {
					t.Fatalf("n=%d shard %d/%d: store owns %v, ShardSlice %v", n, index, count, owned, slice)
				}
				if n == 0 {
					continue // a grid plans at least one job
				}
				// The grid consults Lookup once for each job of its shard.
				var looked []sim.GridJob
				_, err := sim.RunGrid(specs, sim.GridOptions{
					Workers: 1, Shard: index, Shards: count,
					Lookup: func(j sim.GridJob) (sim.JobOutcome, bool) {
						looked = append(looked, j)
						return sim.JobOutcome{Routing: 1}, true
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(looked, slice) {
					t.Fatalf("n=%d shard %d/%d: grid runs %v, ShardSlice %v", n, index, count, looked, slice)
				}
			}
		}
	}
}
