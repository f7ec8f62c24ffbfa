package core

import (
	"testing"

	"obm/internal/graph"
	"obm/internal/paging"
	"obm/internal/stats"
	"obm/internal/trace"
)

func testModel(n int, alpha float64) CostModel {
	top := graph.FatTreeRacks(n)
	return CostModel{Metric: top.Metric(), Alpha: alpha}
}

func uniformModel(n int) CostModel {
	return CostModel{Metric: graph.UniformMetric(n, 1), Alpha: 1}
}

func runTrace(t *testing.T, alg Algorithm, tr *trace.Trace) (routing, reconfig float64) {
	t.Helper()
	for _, req := range tr.Reqs {
		st := alg.Serve(int(req.Src), int(req.Dst))
		routing += st.RoutingCost
		reconfig += st.ReconfigCost(30)
	}
	return
}

func TestCostModelValidate(t *testing.T) {
	if err := (CostModel{}).Validate(); err == nil {
		t.Fatal("nil metric accepted")
	}
	if err := (CostModel{Metric: graph.UniformMetric(3, 1), Alpha: 0.5}).Validate(); err == nil {
		t.Fatal("alpha < 1 accepted")
	}
	m := testModel(10, 30)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if g := m.Gamma(); g != 1+4.0/30 {
		t.Fatalf("Gamma = %v", g)
	}
}

func TestStepCosts(t *testing.T) {
	s := Step{RoutingCost: 4, Adds: 1, Removals: 2}
	if s.ReconfigCost(10) != 30 || s.Total(10) != 34 {
		t.Fatal("step cost arithmetic wrong")
	}
}

func TestRBMAConstructorErrors(t *testing.T) {
	m := testModel(10, 30)
	if _, err := NewRBMA(1, 2, m, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewRBMA(5, 0, m, 0); err == nil {
		t.Error("b=0 accepted")
	}
	if _, err := NewRBMA(5, 2, CostModel{}, 0); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := NewRBMA(50, 2, m, 0); err == nil {
		t.Error("metric too small accepted")
	}
}

func TestRBMAMatchesRequestedPairUniform(t *testing.T) {
	// In the uniform case (α=1, ℓ=1) every request is forwarded; after a
	// request, the pair must be in the matching.
	r, err := NewRBMA(6, 2, uniformModel(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(3)
	for i := 0; i < 2000; i++ {
		u, v := rng.Intn(6), rng.Intn(6)
		if u == v {
			continue
		}
		r.Serve(u, v)
		if !r.Matched(u, v) {
			t.Fatalf("step %d: requested pair {%d,%d} not matched after serve", i, u, v)
		}
		if err := CheckDegreeInvariant(r); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := r.CheckCacheInvariant(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestRBMAEagerInvariants(t *testing.T) {
	r, err := NewRBMA(8, 2, uniformModel(8), 7, WithEagerRemoval())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(9)
	for i := 0; i < 5000; i++ {
		u, v := rng.Intn(8), rng.Intn(8)
		if u == v {
			continue
		}
		r.Serve(u, v)
		if err := r.CheckCacheInvariant(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := CheckDegreeInvariant(r); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestRBMALazyInvariantsNonUniform(t *testing.T) {
	model := testModel(12, 30)
	r, err := NewRBMA(12, 3, model, 11)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := trace.FacebookStyle(trace.FacebookPreset(trace.Database, 12, 5))
	tr = tr.Prefix(20000)
	for i, req := range tr.Reqs {
		r.Serve(int(req.Src), int(req.Dst))
		if i%100 == 0 {
			if err := r.CheckCacheInvariant(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if err := CheckDegreeInvariant(r); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
}

func TestRBMAForwardingAccounting(t *testing.T) {
	// With α=30 and fat-tree distances {2,4}: k_e ∈ {15, 8}. Requesting one
	// same-pod pair (ℓ=2, k_e=15) 45 times must forward exactly 3 times.
	model := testModel(10, 30)
	r, err := NewRBMA(10, 2, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	if model.Metric.Dist(0, 1) != 2 {
		t.Fatalf("expected same-pod distance 2, got %d", model.Metric.Dist(0, 1))
	}
	for i := 0; i < 45; i++ {
		r.Serve(0, 1)
	}
	if r.ForwardedRequests != 3 {
		t.Fatalf("forwarded %d requests, want 3", r.ForwardedRequests)
	}
}

func TestRBMARoutingCostDropsAfterMatch(t *testing.T) {
	model := testModel(10, 30)
	r, _ := NewRBMA(10, 2, model, 0)
	// Cross-pod pair: ℓ=4, k_e=8. First 7 requests cost 4 each; the 8th is
	// forwarded and matches the pair; afterwards cost is 1.
	u, v := 0, 5
	if model.Metric.Dist(u, v) != 4 {
		t.Fatalf("expected cross-pod distance 4, got %d", model.Metric.Dist(u, v))
	}
	var costs []float64
	for i := 0; i < 10; i++ {
		st := r.Serve(u, v)
		costs = append(costs, st.RoutingCost)
	}
	for i := 0; i < 8; i++ {
		if costs[i] != 4 {
			t.Fatalf("request %d cost %v, want 4", i, costs[i])
		}
	}
	if costs[8] != 1 || costs[9] != 1 {
		t.Fatalf("post-match costs = %v, want 1", costs[8:])
	}
}

func TestRBMADeterministicForSeed(t *testing.T) {
	model := testModel(10, 30)
	tr, _ := trace.FacebookStyle(trace.FacebookPreset(trace.WebService, 10, 2))
	tr = tr.Prefix(10000)
	run := func() (float64, float64) {
		r, _ := NewRBMA(10, 3, model, 42)
		return runTrace(t, r, tr)
	}
	r1a, r1b := run()
	r2a, r2b := run()
	if r1a != r2a || r1b != r2b {
		t.Fatal("same seed produced different costs")
	}
}

func TestRBMASeedsDiffer(t *testing.T) {
	model := testModel(10, 30)
	tr, _ := trace.FacebookStyle(trace.FacebookPreset(trace.WebService, 10, 2))
	tr = tr.Prefix(10000)
	costs := map[float64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		r, _ := NewRBMA(10, 3, model, seed)
		a, b := runTrace(t, r, tr)
		costs[a+b] = true
	}
	if len(costs) < 2 {
		t.Fatal("different seeds should usually produce different runs")
	}
}

func TestRBMAResetRestoresInitialState(t *testing.T) {
	model := testModel(8, 30)
	tr, _ := trace.FacebookStyle(trace.FacebookPreset(trace.Database, 8, 3))
	tr = tr.Prefix(5000)
	r, _ := NewRBMA(8, 2, model, 5)
	a1, b1 := runTrace(t, r, tr)
	r.Reset()
	if r.MatchingSize() != 0 || r.ForwardedRequests != 0 {
		t.Fatal("Reset did not clear state")
	}
	a2, b2 := runTrace(t, r, tr)
	if a1 != a2 || b1 != b2 {
		t.Fatal("replay after Reset differs")
	}
}

func TestRBMACacheFactoryAblation(t *testing.T) {
	model := testModel(8, 30)
	r, err := NewRBMA(8, 2, model, 5, WithCacheFactory(paging.NewLRUFactory, "lru"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "r-bma[lru]" {
		t.Fatalf("Name = %q", r.Name())
	}
	tr, _ := trace.FacebookStyle(trace.FacebookPreset(trace.Database, 8, 3))
	runTrace(t, r, tr.Prefix(3000))
	if err := r.CheckCacheInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestBMAInvariantsAndCosts(t *testing.T) {
	model := testModel(12, 30)
	a, err := NewBMA(12, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := trace.FacebookStyle(trace.FacebookPreset(trace.Database, 12, 7))
	tr = tr.Prefix(20000)
	for i, req := range tr.Reqs {
		st := a.Serve(int(req.Src), int(req.Dst))
		if st.RoutingCost < 1 {
			t.Fatalf("step %d: routing cost %v < 1", i, st.RoutingCost)
		}
		if i%250 == 0 {
			if err := CheckDegreeInvariant(a); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if a.MatchingSize() == 0 {
		t.Fatal("BMA never matched anything on a skewed trace")
	}
}

func TestBMARentOrBuyThreshold(t *testing.T) {
	model := testModel(10, 30)
	a, _ := NewBMA(10, 2, model)
	// Cross-pod pair, ℓ=4: rent reaches α=30 on the 8th request
	// (accumulated 32 ≥ 30), which is when the edge is bought.
	for i := 0; i < 7; i++ {
		st := a.Serve(0, 5)
		if st.Adds != 0 {
			t.Fatalf("request %d bought too early", i)
		}
	}
	st := a.Serve(0, 5)
	if st.Adds != 1 {
		t.Fatal("edge not bought at rent threshold")
	}
	if !a.Matched(0, 5) {
		t.Fatal("pair not matched after buy")
	}
	if a.Serve(0, 5).RoutingCost != 1 {
		t.Fatal("matched pair should route at cost 1")
	}
}

func TestBMAEvictionRequiresStrongerCandidate(t *testing.T) {
	// b=1: node 0 matches {0,1}; a fresh candidate {0,2} must out-rent the
	// defense before evicting it.
	model := testModel(10, 30)
	a, _ := NewBMA(10, 1, model)
	for i := 0; i < 8; i++ {
		a.Serve(0, 5) // cross-pod: buys on 8th
	}
	if !a.Matched(0, 5) {
		t.Fatal("setup failed")
	}
	// {0,1} is same-pod (ℓ=2): rent reaches 30 after 15 requests, but the
	// defense of {0,5} is α=30, so eviction needs rent > 30.
	for i := 0; i < 15; i++ {
		a.Serve(0, 1)
	}
	if a.Matched(0, 1) {
		t.Fatal("candidate evicted defender too early")
	}
	a.Serve(0, 1) // rent 32 > 30
	if !a.Matched(0, 1) || a.Matched(0, 5) {
		t.Fatal("candidate should have replaced defender")
	}
}

func TestObliviousNeverMatches(t *testing.T) {
	model := testModel(10, 30)
	o, err := NewOblivious(model)
	if err != nil {
		t.Fatal(err)
	}
	st := o.Serve(0, 5)
	if st.RoutingCost != 4 || st.Adds != 0 {
		t.Fatalf("oblivious step = %+v", st)
	}
	if o.Matched(0, 5) || o.MatchingSize() != 0 {
		t.Fatal("oblivious must not match")
	}
}

func TestStaticMatchesHeavyPairs(t *testing.T) {
	model := testModel(10, 30)
	// A trace dominated by two pairs: SO-BMA must match both.
	reqs := make([]trace.Request, 0, 3000)
	for i := 0; i < 1000; i++ {
		reqs = append(reqs, trace.Request{Src: 0, Dst: 5})
		reqs = append(reqs, trace.Request{Src: 1, Dst: 6})
		reqs = append(reqs, trace.Request{Src: int32(2 + i%3), Dst: int32(7 + i%3)})
	}
	tr := &trace.Trace{Name: "synthetic", NumRacks: 10, Reqs: reqs}
	s, err := NewStaticFromTrace(tr, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Matched(0, 5) || !s.Matched(1, 6) {
		t.Fatal("SO-BMA missed the heavy pairs")
	}
	if s.Serve(0, 5).RoutingCost != 1 {
		t.Fatal("matched pair should cost 1")
	}
}

func TestStaticRespectsDegreeCap(t *testing.T) {
	model := testModel(10, 30)
	tr, _ := trace.FacebookStyle(trace.FacebookPreset(trace.Database, 10, 1))
	tr = tr.Prefix(20000)
	for _, b := range []int{1, 2, 4} {
		s, err := NewStaticFromTrace(tr, b, model)
		if err != nil {
			t.Fatal(err)
		}
		deg := make([]int, 10)
		for _, k := range s.Edges() {
			u, v := k.Endpoints()
			deg[u]++
			deg[v]++
		}
		for u, d := range deg {
			if d > b {
				t.Fatalf("b=%d: node %d degree %d", b, u, d)
			}
		}
	}
}
