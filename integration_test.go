package obm

// End-to-end integration tests across package boundaries: generate a
// workload, persist and reload it, replay it through every algorithm
// family, export and re-parse the experiment CSV, and check the global
// invariants the paper's evaluation relies on.

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"obm/internal/core"
	"obm/internal/flow"
	"obm/internal/graph"
	"obm/internal/sim"
	"obm/internal/trace"
)

func TestEndToEndPipeline(t *testing.T) {
	// 1. Generate and round-trip the workload through the binary codec.
	p := trace.FacebookPreset(trace.Database, 24, 5)
	p.Requests = 20000
	tr, err := trace.FacebookStyle(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr, err = trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Replay through every algorithm family on the same topology.
	top := graph.FatTreeRacks(24)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	ct, err := tr.Compile(model.Metric.Dist)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Name:        "integration",
		Trace:       ct,
		Model:       model,
		Bs:          []int{4},
		Reps:        2,
		Checkpoints: sim.Checkpoints(tr.Len(), 5),
	}
	specs := []sim.AlgSpec{
		{Name: "r-bma", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
			return core.NewRBMA(24, b, model, rep)
		}},
		{Name: "bma", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
			return core.NewBMA(24, b, model)
		}},
		{Name: "so-bma", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
			return core.NewStaticFromTrace(tr, b, model)
		}},
		{Name: "rotor", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
			return core.NewRotor(24, b, model, 100)
		}},
		{Name: "oblivious", FixedB: 0, New: func(b int, rep uint64) (core.Algorithm, error) {
			return core.NewOblivious(model)
		}},
	}
	res, err := sim.RunExperiment(cfg, specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	finals := res.FinalRouting()

	// 3. Global ordering invariants on skewed, temporally structured load:
	// every demand-aware scheme beats oblivious; demand-aware beats the
	// demand-oblivious rotor.
	obl := finals["oblivious(b=0)"]
	for _, name := range []string{"r-bma(b=4)", "bma(b=4)", "so-bma(b=4)"} {
		if finals[name] >= obl {
			t.Fatalf("%s (%v) should beat oblivious (%v)", name, finals[name], obl)
		}
	}
	if finals["r-bma(b=4)"] >= finals["rotor(b=4)"] {
		t.Fatalf("r-bma (%v) should beat rotor (%v) on skewed traffic",
			finals["r-bma(b=4)"], finals["rotor(b=4)"])
	}

	// 4. CSV export parses back with consistent totals.
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(res.Curves)*5 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+len(res.Curves)*5)
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 8 {
			t.Fatalf("bad CSV row %q", line)
		}
		routing, err1 := strconv.ParseFloat(fields[4], 64)
		reconf, err2 := strconv.ParseFloat(fields[5], 64)
		total, err3 := strconv.ParseFloat(fields[6], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparseable CSV row %q", line)
		}
		if diff := total - routing - reconf; diff > 0.51 || diff < -0.51 {
			t.Fatalf("CSV totals inconsistent in %q", line)
		}
	}
}

func TestEndToEndFlowLevel(t *testing.T) {
	// Cost-model improvement must translate into flow-level improvement.
	top := graph.FatTreeRacks(16)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	p := trace.FacebookPreset(trace.Hadoop, 16, 7)
	p.Requests = 15000
	tr, _ := trace.FacebookStyle(p)
	cfg := flow.Config{
		LinkCapacity: 100, OpticalCapacity: 400,
		MeanFlowSize: 50, ArrivalRate: 4, Seed: 2,
	}
	obl, err := flow.SimulateOblivious(top, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alg, _ := core.NewRBMA(16, 3, model, 9)
	opt, err := flow.SimulateWithAlgorithm(top, tr, cfg, alg)
	if err != nil {
		t.Fatal(err)
	}
	if opt.MeanFCT >= obl.MeanFCT {
		t.Fatalf("flow-level FCT should improve with R-BMA: %v vs %v", opt.MeanFCT, obl.MeanFCT)
	}
}

func TestEndToEndUtilization(t *testing.T) {
	top := graph.FatTreeRacks(16)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	p := trace.FacebookPreset(trace.Database, 16, 3)
	p.Requests = 15000
	tr, _ := trace.FacebookStyle(p)

	alg, _ := core.NewRBMA(16, 3, model, 1)
	res, util, err := sim.RunWithUtilization(alg, tr, model.Alpha, top)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMatchingSize == 0 || util.MatchedFraction == 0 {
		t.Fatal("expected a live matching")
	}
	if util.MaxLinkLoad < util.MeanLinkLoad {
		t.Fatal("max link load below mean")
	}
	if len(util.HottestLinks) == 0 {
		t.Fatal("no hottest links reported")
	}
}
