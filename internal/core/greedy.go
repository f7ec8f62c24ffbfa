package core

import (
	"fmt"

	"obm/internal/matching"
	"obm/internal/trace"
)

// GreedyNoEvict is the simplest demand-aware baseline: the first time a
// pair is requested with both endpoints below their degree cap, it is
// matched — and never evicted. Cheap, but unable to adapt once capacity
// fills; its gap to R-BMA isolates the value of eviction.
type GreedyNoEvict struct {
	n, b  int
	model CostModel
	m     *matching.BMatching
}

// NewGreedyNoEvict constructs the no-eviction baseline.
func NewGreedyNoEvict(n, b int, model CostModel) (*GreedyNoEvict, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: NewGreedyNoEvict requires n >= 2")
	}
	if b < 1 {
		return nil, fmt.Errorf("core: NewGreedyNoEvict requires b >= 1")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if model.Metric.N() < n {
		return nil, fmt.Errorf("core: metric covers %d racks, need %d", model.Metric.N(), n)
	}
	a := &GreedyNoEvict{n: n, b: b, model: model}
	a.Reset()
	return a, nil
}

// Name implements Algorithm.
func (a *GreedyNoEvict) Name() string { return "greedy-noevict" }

// B implements Algorithm.
func (a *GreedyNoEvict) B() int { return a.b }

// Matched implements Algorithm.
func (a *GreedyNoEvict) Matched(u, v int) bool { return a.m.Has(trace.MakePairKey(u, v)) }

// MatchingSize implements Algorithm.
func (a *GreedyNoEvict) MatchingSize() int { return a.m.Size() }

func (a *GreedyNoEvict) bmatching() *matching.BMatching { return a.m }

// Reset implements Algorithm.
func (a *GreedyNoEvict) Reset() { a.m = matching.NewBMatching(a.n, a.b) }

// Serve implements Algorithm.
func (a *GreedyNoEvict) Serve(u, v int) Step {
	k := trace.MakePairKey(u, v)
	var step Step
	if a.m.Has(k) {
		step.RoutingCost = 1
		return step
	}
	step.RoutingCost = a.model.RouteCost(k, false)
	if a.m.Free(u) > 0 && a.m.Free(v) > 0 {
		if err := a.m.Add(k); err != nil {
			panic(fmt.Sprintf("core: GreedyNoEvict adding %v: %v", k, err))
		}
		step.Adds++
	}
	return step
}
