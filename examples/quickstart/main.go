// Quickstart: build a fat-tree, synthesize a skewed workload, run the
// paper's randomized online b-matching algorithm (R-BMA), and compare the
// routing cost against the oblivious (static-network-only) baseline.
package main

import (
	"fmt"
	"log"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/sim"
	"obm/internal/trace"
)

func main() {
	// 1. Static network: a fat-tree with 32 racks. The metric is the
	//    shortest-path distance between racks (2 within a pod, 4 across).
	top := graph.FatTreeRacks(32)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}

	// 2. Workload: a Facebook-database-style trace — spatially skewed with
	//    temporal locality, the regime where reconfiguration pays off.
	params := trace.FacebookPreset(trace.Database, 32, 1)
	params.Requests = 50000
	tr, err := trace.FacebookStyle(params)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compile the trace once against the metric: every request is
	//    pre-resolved to its rack pair and static distance.
	ct, err := tr.Compile(model.Metric.Dist)
	if err != nil {
		log.Fatal(err)
	}
	checkpoints := sim.Checkpoints(tr.Len(), 5)

	// 4. R-BMA with b = 4 reconfigurable links per rack.
	rbma, err := core.NewRBMA(32, 4, model, 42)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.RunSource(rbma, ct.Source(), model.Alpha, checkpoints, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Baseline: route everything over the static fat-tree.
	obl, _ := core.NewOblivious(model)
	oblRes, err := sim.RunSource(obl, ct.Source(), model.Alpha, checkpoints, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s, %d requests over %d racks\n", tr.Name, tr.Len(), tr.NumRacks)
	fmt.Printf("%-12s %14s %14s\n", "", "R-BMA", "Oblivious")
	for i, x := range res.Series.X {
		fmt.Printf("%-12d %14.0f %14.0f\n", x, res.Series.Routing[i], oblRes.Series.Routing[i])
	}
	final := len(res.Series.X) - 1
	saving := 1 - res.Series.Routing[final]/oblRes.Series.Routing[final]
	fmt.Printf("\nrouting-cost saving: %.1f%%  (matching size %d, %d adds, %d removals)\n",
		100*saving, res.FinalMatchingSize, res.Adds, res.Removals)
}
