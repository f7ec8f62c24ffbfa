// Package core implements the paper's contribution and its baselines: the
// randomized online (b,a)-matching algorithm R-BMA (reduction to per-node
// paging, §2), the deterministic online b-matching baseline BMA
// (Bienkowski et al., PERFORMANCE 2020), the oblivious baseline (static
// network only), the offline static maximum-weight b-matching SO-BMA, the
// rotor and no-eviction baselines that the figure ablations run, and an
// exact offline optimum for small instances.
//
// Cost model (paper §1.1): serving request e costs 1 if e is a matching
// edge, else ℓ_e (the static-network distance); every edge added to or
// removed from the matching costs α.
package core

import (
	"fmt"

	"obm/internal/graph"
	"obm/internal/matching"
	"obm/internal/trace"
)

// CostModel bundles the distance oracle ℓ and the reconfiguration cost α.
type CostModel struct {
	Metric *graph.Metric
	Alpha  float64
}

// Validate reports whether the model is usable.
func (c CostModel) Validate() error {
	if c.Metric == nil {
		return fmt.Errorf("core: CostModel without metric")
	}
	if c.Alpha < 1 {
		return fmt.Errorf("core: CostModel alpha = %v, need >= 1", c.Alpha)
	}
	return nil
}

// Gamma returns γ = 1 + ℓmax/α, the nonuniformity factor in R-BMA's
// competitive ratio (Corollary 3).
func (c CostModel) Gamma() float64 {
	return 1 + float64(c.Metric.Max())/c.Alpha
}

// RouteCost returns the cost of serving pair k given its matching status.
func (c CostModel) RouteCost(k trace.PairKey, matched bool) float64 {
	if matched {
		return 1
	}
	u, v := k.Endpoints()
	return float64(c.Metric.Dist(u, v))
}

// Step reports what one request cost: the routing cost paid and the number
// of matching edges added and removed while serving it.
type Step struct {
	RoutingCost float64
	Adds        int
	Removals    int
}

// ReconfigCost returns the reconfiguration cost of the step under α.
func (s Step) ReconfigCost(alpha float64) float64 {
	return alpha * float64(s.Adds+s.Removals)
}

// Total returns the full cost of the step under α.
func (s Step) Total(alpha float64) float64 {
	return s.RoutingCost + s.ReconfigCost(alpha)
}

// Algorithm is an online b-matching algorithm: it is fed one request at a
// time and maintains a dynamic b-matching.
type Algorithm interface {
	// Name identifies the algorithm (used in experiment output).
	Name() string
	// B returns the degree cap.
	B() int
	// Serve processes the request {u, v} and returns the step costs.
	Serve(u, v int) Step
	// Matched reports whether pair {u, v} is currently a matching edge.
	Matched(u, v int) bool
	// MatchingSize returns the current number of matching edges.
	MatchingSize() int
	// Reset restores the initial (empty-matching) state.
	Reset()
}

// CompiledServer is implemented by algorithms with a dense fast path: given
// pre-resolved requests (PairID, endpoints, static distance) they skip
// per-request canonicalization and metric lookups, and serve and fold a
// whole chunk in one call instead of one interface call per request.
// ServeChunk serves reqs in order and folds each request's step into tot
// with tot.Add(step, alpha): the totals must be bit-identical to folding
// Serve(req.U, req.V) for each request in turn. Every replay and the live
// engine feed their chunks through it (sim.Incremental.FeedChunk).
type CompiledServer interface {
	ServeChunk(reqs []trace.CompiledReq, tot *ShardStep, alpha float64)
}

// Reseeder is implemented by randomized algorithms that can adopt a new
// seed in place: after Reseed(seed) the instance must be indistinguishable
// from a freshly constructed one with that seed. Experiment drivers use it
// to recycle instances across repetitions instead of reallocating the
// per-pair state tables.
type Reseeder interface {
	Reseed(seed uint64)
}

// degreeCapped is the invariant-check hook shared by implementations that
// expose their BMatching for tests.
type degreeCapped interface {
	bmatching() *matching.BMatching
}

// CheckDegreeInvariant verifies that alg's matching respects its degree cap;
// it returns nil for algorithms that do not expose their matching.
// Intended for tests and the simulator's paranoid mode.
func CheckDegreeInvariant(alg Algorithm) error {
	d, ok := alg.(degreeCapped)
	if !ok {
		return nil
	}
	return d.bmatching().CheckInvariants()
}
