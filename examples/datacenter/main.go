// Datacenter: the paper's head-to-head on one workload — R-BMA vs the
// deterministic BMA vs the offline static SO-BMA vs Oblivious, across a
// sweep of b (number of optical circuit switches), with averaged
// repetitions and an ASCII rendition of the routing-cost figure.
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
	const racks = 50
	model := core.CostModel{Metric: graph.FatTreeMetric(racks), Alpha: 30}

	params := trace.FacebookPreset(trace.Hadoop, racks, 7)
	params.Requests = 60000
	tr, err := trace.FacebookStyle(params)
	if err != nil {
		log.Fatal(err)
	}
	stats := trace.Analyze(tr)
	fmt.Printf("workload %s: Gini %.2f (spatial skew), temporal score %.2f\n\n",
		tr.Name, stats.PairGini, stats.TemporalScore)

	ct, err := tr.Compile(model.Metric.Dist)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.Config{
		Name:        "datacenter-example",
		Trace:       ct,
		Model:       model,
		Bs:          []int{3, 6, 12},
		Reps:        3,
		Checkpoints: sim.Checkpoints(tr.Len(), 10),
	}
	specs := []sim.AlgSpec{
		{
			Name: "r-bma", FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewRBMA(racks, b, model, rep+uint64(b)<<32)
			},
		},
		{
			Name: "bma", FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewBMA(racks, b, model)
			},
		},
		{
			Name: "so-bma", FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewStaticFromTrace(tr, b, model)
			},
		},
		{
			Name: "oblivious", FixedB: 0,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewOblivious(model)
			},
		},
	}
	res, err := sim.RunExperiment(cfg, specs, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.SummaryRows() {
		fmt.Println(row)
	}
	fmt.Println()
	fmt.Println(sim.ASCIIChart("cumulative routing cost", res.Curves, 64, 14))
}
