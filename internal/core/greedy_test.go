package core

import (
	"testing"

	"obm/internal/trace"
)

func TestGreedyNoEvictNeverRemoves(t *testing.T) {
	model := testModel(10, 30)
	a, err := NewGreedyNoEvict(10, 1, model)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Serve(0, 5)
	if st.Adds != 1 {
		t.Fatal("first request should match")
	}
	// Conflicting pair at node 0: must be refused, never evict.
	for i := 0; i < 1000; i++ {
		st := a.Serve(0, 7)
		if st.Adds != 0 || st.Removals != 0 {
			t.Fatal("no-evict baseline reconfigured")
		}
	}
	if !a.Matched(0, 5) || a.Matched(0, 7) {
		t.Fatal("matching changed")
	}
}

func TestGreedyNoEvictWorseThanRBMAOnShiftingDemand(t *testing.T) {
	// Two successive permutation patterns: no-evict locks onto the first
	// and pays full price for the second; R-BMA adapts.
	model := testModel(16, 30)
	tr1 := trace.Permutation(16, 15000, 1)
	tr2 := trace.Permutation(16, 15000, 9) // different permutation
	reqs := append(append([]trace.Request{}, tr1.Reqs...), tr2.Reqs...)
	tr := &trace.Trace{NumRacks: 16, Reqs: reqs}

	run := func(alg Algorithm) float64 {
		var sum float64
		for _, req := range tr.Reqs {
			sum += alg.Serve(int(req.Src), int(req.Dst)).Total(model.Alpha)
		}
		return sum
	}
	ge, _ := NewGreedyNoEvict(16, 1, model)
	geCost := run(ge)
	r, _ := NewRBMA(16, 1, model, 4)
	rCost := run(r)
	if rCost >= geCost {
		t.Fatalf("R-BMA (%v) should beat no-evict (%v) on shifting demand", rCost, geCost)
	}
}

func TestBatchAndGreedyNames(t *testing.T) {
	model := testModel(10, 30)
	g, _ := NewGreedyNoEvict(10, 2, model)
	if g.Name() != "greedy-noevict" {
		t.Fatalf("Name = %q", g.Name())
	}
	if g.B() != 2 {
		t.Fatal("B() wrong")
	}
}
