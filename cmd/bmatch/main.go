// Command bmatch runs one online b-matching algorithm on one workload and
// prints a cost breakdown: the quickest way to poke at the algorithms.
//
// Usage:
//
//	bmatch [-alg r-bma|bma|oblivious|so-bma|…] [-b 6] [-alpha 30]
//	       [-workload facebook-database|microsoft|uniform|…]
//	       [-racks 100] [-requests 100000] [-seed 1] [-trace file.csv|file.bin]
//
// -alg takes every algorithm the scenario grid registers and -workload
// every workload family (`experiments grid -list` prints both).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/sim"
	"obm/internal/trace"
)

func main() {
	var (
		alg       = flag.String("alg", "r-bma", "algorithm: "+strings.Join(sim.Algorithms(), ", "))
		b         = flag.Int("b", 6, "degree cap (number of optical switches)")
		alpha     = flag.Float64("alpha", 30, "reconfiguration cost α")
		workload  = flag.String("workload", "facebook-database", "workload family: "+strings.Join(sim.Families(), ", "))
		racks     = flag.Int("racks", 100, "number of racks")
		requests  = flag.Int("requests", 100000, "number of requests")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		traceFile = flag.String("trace", "", "trace file, CSV or binary (overrides -workload)")
		showUtil  = flag.Bool("utilization", false, "report per-link static-fabric utilization")
	)
	flag.Parse()

	tr, err := loadTrace(*traceFile, sim.ScenarioSpec{Family: *workload, Racks: *racks, Requests: *requests, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	top := graph.FatTreeRacks(tr.NumRacks)
	model := core.CostModel{Metric: graph.FatTreeMetric(tr.NumRacks), Alpha: *alpha}
	algorithm, err := buildAlg(*alg, tr, *b, model, *seed)
	if err != nil {
		fatal(err)
	}
	ct, err := tr.Compile(model.Metric.Dist)
	if err != nil {
		fatal(err)
	}
	checkpoints := sim.Checkpoints(tr.Len(), 1)
	res, err := sim.RunSource(algorithm, ct.Source(), model.Alpha, checkpoints, 0)
	if err != nil {
		fatal(err)
	}
	routing := res.Series.Routing[0]
	reconfig := res.Series.Reconfig[0]
	obl, _ := core.NewOblivious(model)
	oblRes, err := sim.RunSource(obl, ct.Source(), model.Alpha, checkpoints, 0)
	if err != nil {
		fatal(err)
	}
	oblRouting := oblRes.Series.Routing[0]

	fmt.Printf("trace:            %s (%d racks, %d requests)\n", tr.Name, tr.NumRacks, tr.Len())
	fmt.Printf("topology:         %s (ℓmax=%d)\n", top.Name(), model.Metric.Max())
	fmt.Printf("algorithm:        %s (b=%d, α=%g)\n", algorithm.Name(), *b, *alpha)
	fmt.Printf("routing cost:     %.0f\n", routing)
	fmt.Printf("reconfig cost:    %.0f (%d adds, %d removals)\n", reconfig, res.Adds, res.Removals)
	fmt.Printf("total cost:       %.0f\n", routing+reconfig)
	fmt.Printf("final matching:   %d edges\n", res.FinalMatchingSize)
	fmt.Printf("oblivious cost:   %.0f\n", oblRouting)
	fmt.Printf("routing saving:   %.1f%%\n", 100*(1-routing/oblRouting))
	fmt.Printf("decision loop:    %v\n", res.Elapsed)

	if *showUtil {
		fresh, err := buildAlg(*alg, tr, *b, model, *seed)
		if err != nil {
			fatal(err)
		}
		_, util, err := sim.RunWithUtilization(fresh, tr, model.Alpha, top)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("matched share:    %.1f%%\n", 100*util.MatchedFraction)
		fmt.Printf("max link load:    %.0f requests\n", util.MaxLinkLoad)
		fmt.Printf("mean link load:   %.1f requests\n", util.MeanLinkLoad)
		fmt.Printf("hottest links:    %v\n", util.HottestLinks)
	}
}

// loadTrace reads the -trace file, or materializes the -workload
// family's stream.
func loadTrace(file string, spec sim.ScenarioSpec) (*trace.Trace, error) {
	if file != "" {
		return trace.ReadFile(file)
	}
	st, err := spec.NewStream()
	if err != nil {
		return nil, err
	}
	return trace.Collect(st), nil
}

// buildAlg builds the named algorithm from the registry, seeded with
// -seed itself. SO-BMA is built from the trace loaded: a -trace file has
// no scenario to rebuild it from.
func buildAlg(name string, tr *trace.Trace, b int, model core.CostModel, seed uint64) (core.Algorithm, error) {
	if name == "so-bma" {
		return core.NewStaticFromTrace(tr, b, model)
	}
	return sim.ScenarioSpec{Racks: tr.NumRacks}.NewAlgorithm(model, name, b, seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bmatch:", err)
	os.Exit(1)
}
