package sim

import (
	"testing"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/trace"
)

func TestUtilizationObliviousLoadsAllPaths(t *testing.T) {
	top := graph.Star(5)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	// 100 leaf-to-leaf requests: every one crosses two hub links.
	reqs := make([]trace.Request, 100)
	for i := range reqs {
		reqs[i] = trace.Request{Src: 1, Dst: 2}
	}
	tr := &trace.Trace{NumRacks: top.NumRacks(), Reqs: reqs}
	obl, _ := core.NewOblivious(model)
	_, util, err := RunWithUtilization(obl, tr, model.Alpha, top)
	if err != nil {
		t.Fatal(err)
	}
	if util.MatchedFraction != 0 {
		t.Fatal("oblivious never matches")
	}
	if util.MaxLinkLoad != 100 {
		t.Fatalf("MaxLinkLoad = %v, want 100", util.MaxLinkLoad)
	}
	if len(util.StaticLinkLoads) != 2 {
		t.Fatalf("expected exactly 2 loaded links, got %d", len(util.StaticLinkLoads))
	}
}

func TestUtilizationMatchingOffloadsFabric(t *testing.T) {
	top := graph.FatTreeRacks(16)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	p := trace.FacebookPreset(trace.Database, 16, 5)
	p.Requests = 30000
	tr, _ := trace.FacebookStyle(p)

	load := func(alg core.Algorithm) (float64, float64) {
		_, util, err := RunWithUtilization(alg, tr, model.Alpha, top)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, l := range util.StaticLinkLoads {
			total += l
		}
		return total, util.MatchedFraction
	}
	obl, _ := core.NewOblivious(model)
	oblLoad, _ := load(obl)
	rbma, _ := core.NewRBMA(16, 3, model, 1)
	rbmaLoad, matched := load(rbma)
	if matched < 0.5 {
		t.Fatalf("R-BMA matched only %.0f%% of a skewed trace", 100*matched)
	}
	if rbmaLoad >= oblLoad/2 {
		t.Fatalf("R-BMA should offload the fabric: %v vs oblivious %v", rbmaLoad, oblLoad)
	}
}

func TestUtilizationValidation(t *testing.T) {
	top := graph.Star(3)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	obl, _ := core.NewOblivious(model)
	bad := &trace.Trace{NumRacks: 50, Reqs: []trace.Request{{Src: 0, Dst: 49}}}
	if _, _, err := RunWithUtilization(obl, bad, model.Alpha, top); err == nil {
		t.Fatal("trace larger than topology accepted")
	}
}
