package core

import (
	"fmt"
	"math"
	"math/bits"

	"obm/internal/matching"
	"obm/internal/trace"
)

// BMA is the deterministic online b-matching baseline of Bienkowski,
// Fuchssteiner, Marcinkowski and Schmid (PERFORMANCE 2020), reimplemented
// from its description: a rent-or-buy counter scheme with min-counter
// eviction.
//
//   - Every unmatched pair accumulates the routing cost it pays. Once a
//     pair's accumulated cost reaches α it becomes a candidate: buying the
//     edge would have been no more expensive than the rent already paid.
//   - A candidate is inserted if both endpoints have spare capacity.
//     At a saturated endpoint, the incident matching edge with the smallest
//     defense counter is evicted — but only if the candidate's counter
//     exceeds that defense; otherwise insertion is deferred and the
//     candidate keeps accumulating (and keeps re-trying on every request,
//     which is the Θ(b) scan that makes BMA measurably slower than R-BMA
//     and sensitive to b, as the paper's Figures 1b–4b show).
//   - An inserted edge's defense counter starts at α and decays by the
//     evicted edges' accounting: on eviction a pair's counters reset, so it
//     must re-earn its place. This gives the O(b) competitive behaviour of
//     the original (each matched edge can deflect at most b candidates).
//
// The rent and defense counters share one flat []float64 table indexed by
// trace.PairID (absent ≡ 0, matching the original map semantics): an
// unmatched pair only accrues rent and a matched edge only defense, and
// both reset when the pair changes side, so a pair's one counter is its
// rent while unmatched and its defense while matched. The matching's
// incidence lists hold PairIDs, so the per-request work is array reads
// plus the deliberate Θ(b) incidence scan. The scan still reads the
// defense of every incident edge at each saturated endpoint, but each of
// its steps is branch-free: it keeps the lexicographic minimum of
// (defense, PairID) as one 128-bit comparison and selects by mask.
type BMA struct {
	n, b  int
	model CostModel

	idx *trace.PairIndex
	m   *matching.BMatching
	// counter, by PairID: the routing cost an unmatched pair accumulated
	// (its rent), or a matching edge's defense counter.
	counter []float64
}

// NewBMA constructs the deterministic baseline.
func NewBMA(n, b int, model CostModel) (*BMA, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: NewBMA requires n >= 2, got %d", n)
	}
	if b < 1 {
		return nil, fmt.Errorf("core: NewBMA requires b >= 1, got %d", b)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if model.Metric.N() < n {
		return nil, fmt.Errorf("core: metric covers %d racks, need %d", model.Metric.N(), n)
	}
	a := &BMA{n: n, b: b, model: model, idx: trace.SharedPairIndex(n)}
	a.Reset()
	return a, nil
}

// Name implements Algorithm.
func (a *BMA) Name() string { return "bma" }

// B implements Algorithm.
func (a *BMA) B() int { return a.b }

// Matched implements Algorithm.
func (a *BMA) Matched(u, v int) bool { return a.m.Has(trace.MakePairKey(u, v)) }

// MatchingSize implements Algorithm.
func (a *BMA) MatchingSize() int { return a.m.Size() }

func (a *BMA) bmatching() *matching.BMatching { return a.m }

// Reset implements Algorithm.
func (a *BMA) Reset() {
	if a.m == nil {
		a.m = matching.NewBMatching(a.n, a.b)
	} else {
		a.m.Reset()
	}
	if a.counter == nil {
		a.counter = make([]float64, a.idx.NumPairs())
	} else {
		clear(a.counter)
	}
}

// Serve implements Algorithm.
func (a *BMA) Serve(u, v int) Step {
	if u > v {
		u, v = v, u
	}
	id := a.idx.ID(u, v)
	return a.serve(id, u, v, a.model.Metric.Dist(u, v))
}

// ServeChunk implements CompiledServer.
func (a *BMA) ServeChunk(reqs []trace.CompiledReq, tot *ShardStep, alpha float64) {
	t := *tot
	for i := range reqs {
		req := &reqs[i]
		t.Add(a.serve(req.ID, int(req.U), int(req.V), int(req.Dist)), alpha)
	}
	*tot = t
}

// serve processes the request for pair id = {u, v} (u < v) at static
// distance dist.
func (a *BMA) serve(id trace.PairID, u, v, dist int) Step {
	var step Step
	if a.m.HasID(id) {
		step.RoutingCost = 1
		// A matched edge that keeps being used strengthens its defense,
		// up to one reconfiguration's worth.
		if a.counter[id] < a.model.Alpha {
			a.counter[id]++
		}
		return step
	}
	le := float64(dist)
	step.RoutingCost = le
	a.counter[id] += le
	// The original BMA evaluates the insertion condition on every request
	// to an unmatched pair, which requires finding the weakest incident
	// matching edge at both endpoints — a Θ(b) scan per request. This scan
	// is the reason BMA's running time grows with b in the paper's
	// Figures 1b–4b, so it is reproduced faithfully here rather than
	// short-circuited behind the rent threshold.
	victims, nv, ok := a.findVictims(id, u, v)
	if !ok || a.counter[id] < a.model.Alpha {
		return step
	}
	for _, q := range victims[:nv] {
		if err := a.m.RemoveID(q); err != nil {
			panic(fmt.Sprintf("core: BMA removing %v: %v", a.idx.Key(q), err))
		}
		a.counter[q] = 0 // an evicted edge re-earns its place from no rent
		step.Removals++
	}
	if err := a.m.AddID(id, u, v); err != nil {
		panic(fmt.Sprintf("core: BMA adding %v: %v", a.idx.Key(id), err))
	}
	step.Adds++
	a.counter[id] = a.model.Alpha // the rent is spent, the defense full
	return step
}

// findVictims determines whether candidate id = {u, v} can be inserted,
// returning the matching edges that must be evicted first (at most one per
// saturated endpoint). Insertion is refused if a saturated endpoint's
// weakest incident edge defends with a counter at least as large as the
// candidate's rent. The scan over incident edges is deliberately the
// original's Θ(b) per attempt; the victims ride back in a fixed-size array
// so the hot path does not allocate.
//
// The weakest edge is the lexicographic minimum of (defense, PairID): the
// pair id (≡ pair key order) breaks ties, for deterministic runs regardless
// of incidence order. Defenses are non-negative and never NaN or −0 (Restore
// refuses them), and on such floats the order of Float64bits is the float
// order, so the scan compares (Float64bits(defense), PairID) as one 128-bit
// key: the borrow out of a two-word subtraction says "smaller", and a mask
// built from it selects the minimum without a branch. A saturated endpoint
// has b ≥ 1 incident edges, so the first one seeds the minimum.
func (a *BMA) findVictims(id trace.PairID, u, v int) (victims [2]trace.PairID, n int, ok bool) {
	for _, w := range [2]int{u, v} {
		if a.m.Free(w) > 0 {
			continue
		}
		inc := a.m.IncidentIDs(w)
		weakest := uint64(inc[0])
		weakestDef := math.Float64bits(a.counter[inc[0]])
		for _, q := range inc[1:] {
			d := math.Float64bits(a.counter[q])
			_, borrow := bits.Sub64(uint64(q), weakest, 0)
			_, borrow = bits.Sub64(d, weakestDef, borrow)
			mask := -borrow
			weakest = weakest&^mask | uint64(q)&mask
			weakestDef = weakestDef&^mask | d&mask
		}
		if a.counter[id] <= math.Float64frombits(weakestDef) {
			return victims, 0, false
		}
		victims[n] = trace.PairID(weakest)
		n++
	}
	// The two victims could coincide only if they were the same pair
	// incident to both u and v, i.e. the pair {u,v} itself — impossible
	// since the candidate is unmatched.
	return victims, n, true
}
