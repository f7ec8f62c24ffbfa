package report

import (
	"fmt"
	"slices"
	"testing"

	"obm/internal/sim"
)

// shardRuleSpecs plans n oblivious jobs over scenarios of one to four
// repetitions with mixed request counts, so the cut falls inside and
// between scenarios.
func shardRuleSpecs(n int) []sim.ScenarioSpec {
	var specs []sim.ScenarioSpec
	for i := 0; n > 0; i++ {
		reps := min(n, i%4+1)
		specs = append(specs, sim.ScenarioSpec{
			Name: fmt.Sprintf("s%d", i), Family: "uniform", Racks: 4, Requests: 5 + 37*i%90, Seed: 1,
			Bs: []int{2}, Reps: reps, Algs: []string{"oblivious"},
		})
		n -= reps
	}
	return specs
}

// TestOneShardRule: GridPlan.ShardSlice, the grid's own shard filter and
// a sharded run store's ownership all read the plan's one cut, so they
// agree on every plan size and shard count.
func TestOneShardRule(t *testing.T) {
	dir := t.TempDir()
	for n := 1; n <= 40; n++ {
		specs := shardRuleSpecs(n)
		plan, err := sim.PlanGrid(specs)
		if err != nil {
			t.Fatal(err)
		}
		for count := 1; count <= 7; count++ {
			for index := range count {
				slice := plan.ShardSlice(index, count)
				m, err := NewManifest("rule", specs, 0, Shard{Index: index, Count: count})
				if err != nil {
					t.Fatal(err)
				}
				st, err := newStore(dir, m)
				if err != nil {
					t.Fatal(err)
				}
				// An empty store is missing exactly the jobs it owns.
				owned, _ := st.Missing()
				if !slices.Equal(owned, slice) {
					t.Fatalf("n=%d shard %d/%d: store owns %v, ShardSlice %v", n, index, count, owned, slice)
				}
				// The grid consults Lookup once for each job of its shard.
				var looked []sim.GridJob
				_, err = sim.RunGrid(specs, sim.GridOptions{
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
