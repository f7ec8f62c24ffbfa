package core

import (
	"fmt"

	"obm/internal/matching"
	"obm/internal/trace"
)

// Oblivious is the no-reconfiguration baseline: every request is routed
// over the static network (the violet "Oblivious" line in the paper's
// routing-cost figures).
type Oblivious struct {
	model CostModel
}

// NewOblivious constructs the oblivious baseline.
func NewOblivious(model CostModel) (*Oblivious, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Oblivious{model: model}, nil
}

// Name implements Algorithm.
func (o *Oblivious) Name() string { return "oblivious" }

// B implements Algorithm.
func (o *Oblivious) B() int { return 0 }

// Serve implements Algorithm.
func (o *Oblivious) Serve(u, v int) Step {
	return Step{RoutingCost: o.model.RouteCost(trace.MakePairKey(u, v), false)}
}

// ServeChunk implements CompiledServer.
func (o *Oblivious) ServeChunk(reqs []trace.CompiledReq, tot *ShardStep, alpha float64) {
	t := *tot
	for i := range reqs {
		t.Add(Step{RoutingCost: float64(reqs[i].Dist)}, alpha)
	}
	*tot = t
}

// Matched implements Algorithm.
func (o *Oblivious) Matched(u, v int) bool { return false }

// MatchingSize implements Algorithm.
func (o *Oblivious) MatchingSize() int { return 0 }

// Reset implements Algorithm.
func (o *Oblivious) Reset() {}

// Static replays a fixed matching chosen offline: the paper's SO-BMA
// baseline, which computes a static maximum-weight b-matching from the
// full trace (via iterated blossom matchings) and never reconfigures.
type Static struct {
	name  string
	b     int
	model CostModel
	idx   *trace.PairIndex
	edges []uint64 // bitset by PairID
	size  int
	n     int
}

// NewStaticFromTrace builds SO-BMA for a trace: NewStatic over the
// trace's per-pair request counts.
func NewStaticFromTrace(tr *trace.Trace, b int, model CostModel) (*Static, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	idx := trace.SharedPairIndex(tr.NumRacks)
	counts := make([]int64, idx.NumPairs())
	for _, r := range tr.Reqs {
		counts[idx.ID(int(r.Src), int(r.Dst))]++
	}
	return NewStatic(tr.NumRacks, counts, b, model)
}

// NewStatic builds SO-BMA over n racks from per-pair request counts,
// indexed by trace.PairID: pair weights are the total routing-cost saving
// the pair would enjoy if matched, count_e · (ℓ_e − 1), and the matching
// is a maximum-weight b-matching of those weights.
func NewStatic(n int, counts []int64, b int, model CostModel) (*Static, error) {
	if b < 1 {
		return nil, fmt.Errorf("core: NewStatic requires b >= 1")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if n < 2 || len(counts) != trace.NumPairs(n) {
		return nil, fmt.Errorf("core: NewStatic: %d pair counts for %d racks", len(counts), n)
	}
	if model.Metric.N() < n {
		return nil, fmt.Errorf("core: metric covers %d racks, counts need %d", model.Metric.N(), n)
	}
	idx := trace.SharedPairIndex(n)
	// IteratedMWM's tie-breaking is order-sensitive, and SO-BMA
	// construction is part of the determinism contract (two runs of one
	// figure, or a snapshot-restored instance and its original, must agree
	// exactly). PairID order is (u, v) order, so the edge list arrives
	// canonically sorted.
	var edges []matching.WeightedEdge
	for id, c := range counts {
		u, v := idx.Endpoints(trace.PairID(id))
		if benefit := float64(c) * float64(model.Metric.Dist(u, v)-1); benefit > 0 {
			edges = append(edges, matching.WeightedEdge{U: u, V: v, W: benefit})
		}
	}
	chosen := matching.IteratedMWM(n, edges, b)
	s := &Static{
		name:  "so-bma",
		b:     b,
		model: model,
		idx:   idx,
		edges: make([]uint64, (idx.NumPairs()+63)/64),
		size:  len(chosen),
		n:     n,
	}
	for _, k := range chosen {
		id := idx.IDOfKey(k)
		s.edges[id>>6] |= 1 << (uint(id) & 63)
	}
	return s, nil
}

func (s *Static) has(id trace.PairID) bool {
	return s.edges[id>>6]&(1<<(uint(id)&63)) != 0
}

// Name implements Algorithm.
func (s *Static) Name() string { return s.name }

// B implements Algorithm.
func (s *Static) B() int { return s.b }

// Serve implements Algorithm.
func (s *Static) Serve(u, v int) Step {
	k := trace.MakePairKey(u, v)
	return Step{RoutingCost: s.model.RouteCost(k, s.has(s.idx.IDOfKey(k)))}
}

// ServeChunk implements CompiledServer.
func (s *Static) ServeChunk(reqs []trace.CompiledReq, tot *ShardStep, alpha float64) {
	t := *tot
	for i := range reqs {
		st := Step{RoutingCost: float64(reqs[i].Dist)}
		if s.has(reqs[i].ID) {
			st.RoutingCost = 1
		}
		t.Add(st, alpha)
	}
	*tot = t
}

// Matched implements Algorithm.
func (s *Static) Matched(u, v int) bool {
	return s.has(s.idx.IDOfKey(trace.MakePairKey(u, v)))
}

// MatchingSize implements Algorithm.
func (s *Static) MatchingSize() int { return s.size }

// Edges returns the static matching's edges in ascending pair order.
func (s *Static) Edges() []trace.PairKey {
	out := make([]trace.PairKey, 0, s.size)
	for id := 0; id < s.idx.NumPairs(); id++ {
		if s.has(trace.PairID(id)) {
			out = append(out, s.idx.Key(trace.PairID(id)))
		}
	}
	return out
}

// Reset implements Algorithm. The matching is static, so nothing changes.
func (s *Static) Reset() {}
