// Grid: drive the scenario registry end to end on a small rack count —
// define JSON-encodable scenario specs for the new workload families
// (hotspot migration, diurnal swing, tenant mix), expand them into a
// (scenario × algorithm × b × rep) job grid, and execute it on the worker
// pool with streamed, bounded-memory trace replay.
package main

import (
	"fmt"
	"log"
	"os"

	"obm/internal/sim"
)

func main() {
	// 1. Scenario specs. Each names a workload family from the registry
	//    plus its knobs; everything is JSON-encodable, so grids can be
	//    loaded from files (`experiments grid -scenarios specs.json`).
	specs := []sim.ScenarioSpec{
		{
			Name: "hotspot", Family: "hotspot",
			Racks: 16, Requests: 20000, Seed: 1,
			Bs: []int{2, 4}, Reps: 2,
			Params: map[string]float64{"hotspots": 6, "migrate_every": 2500},
		},
		{
			Name: "diurnal", Family: "diurnal",
			Racks: 16, Requests: 20000, Seed: 2,
			Bs: []int{2, 4}, Reps: 2,
			Params: map[string]float64{"period": 5000},
		},
		{
			Name: "tenants", Family: "tenant-mix",
			Racks: 16, Requests: 20000, Seed: 3,
			Bs: []int{2, 4}, Reps: 2,
			Params: map[string]float64{"tenants": 4},
		},
	}

	// 2. Run the grid. The jobs of one scenario read one streaming
	//    source, each chunk fed to every job, so memory stays
	//    O(workers × chunk) plus the live algorithms no matter how long
	//    the traces are; repetitions aggregate into mean±std summary rows.
	res, err := sim.RunGrid(specs, sim.GridOptions{
		Workers: 4,
		Progress: func(done, total int, job sim.GridJob, err error) {
			fmt.Fprintf(os.Stderr, "[%2d/%d] %s\n", done, total, job)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Report: demand-aware algorithms should beat the oblivious
	//    baseline on every skewed scenario.
	fmt.Printf("%d aggregated rows over %d scenarios:\n\n", len(res.Rows), len(specs))
	for _, row := range res.SummaryRows() {
		fmt.Println(row)
	}
	fmt.Println()
	for _, scenario := range []string{"hotspot", "diurnal", "tenants"} {
		var best, obl float64
		var bestAlg string
		for _, r := range res.Rows {
			if r.Scenario != scenario {
				continue
			}
			if r.Alg == "oblivious" {
				obl = r.Routing.Mean
			} else if best == 0 || r.Routing.Mean < best {
				best, bestAlg = r.Routing.Mean, r.Alg
			}
		}
		fmt.Printf("%-8s best demand-aware: %-6s saving %.1f%% routing cost vs oblivious\n",
			scenario, bestAlg, 100*(1-best/obl))
	}
}
