package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"obm/internal/graph"
	"obm/internal/matching"
	"obm/internal/paging"
	"obm/internal/stats"
	"obm/internal/trace"
)

// RBMA is the paper's randomized online algorithm for (b,a)-matching
// (§2.2–2.3), built from two reductions:
//
//  1. Nonuniform → uniform (Theorem 1): per pair e, only every
//     k_e = ⌈α/ℓ_e⌉-th request is forwarded to the uniform algorithm, so
//     reconfiguration decisions happen only after the routing cost paid on
//     e since the last decision is about α.
//  2. Uniform → paging (Theorem 2): every node runs an independent paging
//     cache of capacity b over the node pairs incident to it; the invariant
//     is that a pair is a matching edge iff it is cached at both endpoints.
//
// With randomized-marking caches this yields the
// O((1+ℓmax/α)·log(b/(b−a+1)))-competitive algorithm R-BMA (Corollary 3).
//
// Eviction handling follows the paper's footnote 2: by default removals are
// lazy — an edge evicted from a cache is only marked, and marked edges are
// pruned when a node's incident matching edges would exceed b. Eager mode
// (exact Theorem 2 invariant) is available for analysis and ablations.
//
// All per-pair state is dense, indexed by trace.PairID: forwarding counters
// and the precomputed k_e table are flat []int32, lazily-removed edges live
// in a bitset with per-node marked counts, and the default marking caches
// run in one slab-backed paging.MarkingBank (rack w caches pair {w,o} as
// the item o). Runs are bit-for-bit identical to the original map-backed
// implementation for the same seed: eviction choices are positional, and
// PairID order coincides with PairKey order wherever a tie is broken by
// "smallest pair".
type RBMA struct {
	name    string
	n, b    int
	model   CostModel
	factory paging.Factory // nil: use the slab-backed marking bank
	seed    uint64

	idx      *trace.PairIndex
	bank     *paging.MarkingBank // default uniform layer (factory == nil)
	caches   []paging.Cache      // substituted uniform layer (factory != nil)
	m        *matching.BMatching
	marked   []uint64 // bitset by PairID: lazily-removed edges still in m
	markedAt []int32  // per node: marked edges incident to it
	nMarked  int
	counter  []int32 // by PairID: requests since last special request
	kePair   []int32 // by PairID: k_e = ⌈α/ℓ_e⌉; shared and read-only
	lazy     bool

	// ForwardedRequests counts requests passed to the uniform layer
	// (diagnostics for the reduction's accounting).
	ForwardedRequests int
}

// RBMAOption customizes construction.
type RBMAOption func(*RBMA)

// WithEagerRemoval disables lazy pruning: edges leave the matching the
// moment either endpoint evicts them (the exact Theorem 2 invariant).
func WithEagerRemoval() RBMAOption {
	return func(r *RBMA) { r.lazy = false }
}

// WithCacheFactory substitutes the paging algorithm run at each node
// (default: randomized marking). Used by the ablation experiments. Caches
// built this way hold uint64(trace.PairID) items; implementations that
// support paging.DeclareUniverse get dense slot tables automatically.
func WithCacheFactory(f paging.Factory, name string) RBMAOption {
	return func(r *RBMA) {
		r.factory = f
		r.name = "r-bma[" + name + "]"
	}
}

// MaxDenseCacheEntries bounds the dense slot tables of R-BMA's
// factory-built caches (WithCacheFactory): each of the n caches declares
// a dense universe over all n·(n−1)/2 pairs while n times that is at
// most this many entries. The tables cost O(n³) across all racks; past
// this total they stop paying for themselves, and map mode is
// behavior-identical anyway.
const MaxDenseCacheEntries = 16 << 20

// NewRBMA constructs R-BMA for n racks with degree cap b under the given
// cost model. The seed drives all randomized choices; the same seed yields
// an identical run.
func NewRBMA(n, b int, model CostModel, seed uint64, opts ...RBMAOption) (*RBMA, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: NewRBMA requires n >= 2, got %d", n)
	}
	if b < 1 {
		return nil, fmt.Errorf("core: NewRBMA requires b >= 1, got %d", b)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if model.Metric.N() < n {
		return nil, fmt.Errorf("core: metric covers %d racks, need %d", model.Metric.N(), n)
	}
	r := &RBMA{
		name:  "r-bma",
		n:     n,
		b:     b,
		model: model,
		seed:  seed,
		idx:   trace.SharedPairIndex(n),
		lazy:  true,
	}
	for _, opt := range opts {
		opt(r)
	}
	r.Reset()
	return r, nil
}

// Name implements Algorithm.
func (r *RBMA) Name() string { return r.name }

// B implements Algorithm.
func (r *RBMA) B() int { return r.b }

// Matched implements Algorithm.
func (r *RBMA) Matched(u, v int) bool { return r.m.Has(trace.MakePairKey(u, v)) }

// MatchingSize implements Algorithm.
func (r *RBMA) MatchingSize() int { return r.m.Size() }

func (r *RBMA) bmatching() *matching.BMatching { return r.m }

// setCaches swaps in an externally built uniform layer (clairvoyant and
// predictive variants). Items must be uint64(trace.PairID).
func (r *RBMA) setCaches(cs []paging.Cache) {
	r.bank = nil
	r.caches = cs
}

// Reseed implements Reseeder: the instance restarts from the initial state
// a fresh construction with the new seed would have, reusing every backing
// table.
func (r *RBMA) Reseed(seed uint64) {
	r.seed = seed
	r.Reset()
}

// Reset implements Algorithm.
func (r *RBMA) Reset() {
	master := stats.NewRand(r.seed)
	if r.factory == nil {
		// Default uniform layer: slab-backed marking bank, one cache per
		// rack over the other-endpoint universe. The bank consumes one
		// master draw per rack, exactly like the factory loop below.
		if r.bank == nil {
			r.bank = paging.NewMarkingBank(r.n, r.b, r.n, master)
		} else {
			r.bank.Reset(master)
		}
		r.caches = nil
	} else {
		dense := r.n*r.idx.NumPairs() <= MaxDenseCacheEntries
		r.caches = make([]paging.Cache, r.n)
		for i := range r.caches {
			r.caches[i] = r.factory(r.b, master.Uint64())
			if dense {
				paging.DeclareUniverse(r.caches[i], r.idx.NumPairs())
			}
		}
		r.bank = nil
	}
	if r.m == nil {
		r.m = matching.NewBMatching(r.n, r.b)
	} else {
		r.m.Reset()
	}
	np := r.idx.NumPairs()
	if r.counter == nil {
		r.counter = make([]int32, np)
		r.kePair = sharedKePair(r.model, r.n, r.idx)
		r.marked = make([]uint64, (np+63)/64)
		r.markedAt = make([]int32, r.n)
	} else {
		clear(r.counter)
		clear(r.marked)
		clear(r.markedAt)
	}
	r.nMarked = 0
	r.ForwardedRequests = 0
}

// kePairCacheKey identifies one precomputed k_e table: the forwarding
// periods depend only on the metric, α and the rack count.
type kePairCacheKey struct {
	metric *graph.Metric
	alpha  float64
	n      int
}

var (
	kePairCache     sync.Map // kePairCacheKey -> []int32
	kePairCacheSize atomic.Int32
)

// sharedKePair returns the per-pair table of k_e = ⌈α/ℓ_e⌉ (Theorem 1's
// forwarding period), precomputed once per (metric, α, n) and shared across
// algorithm instances — the table is immutable. The computation goes
// through a small per-distance table so ceil is evaluated once per distinct
// distance. The cache is keyed by metric identity; it is flushed past a
// size bound so processes that keep constructing fresh metrics don't
// accumulate dead tables.
func sharedKePair(model CostModel, n int, idx *trace.PairIndex) []int32 {
	key := kePairCacheKey{metric: model.Metric, alpha: model.Alpha, n: n}
	if t, ok := kePairCache.Load(key); ok {
		return t.([]int32)
	}
	keByDist := make([]int32, model.Metric.Max()+1)
	for d := 1; d < len(keByDist); d++ {
		keByDist[d] = int32(math.Ceil(model.Alpha / float64(d)))
	}
	kePair := make([]int32, idx.NumPairs())
	for id := range kePair {
		u, v := idx.Endpoints(trace.PairID(id))
		kePair[id] = keByDist[model.Metric.Dist(u, v)]
	}
	if t, loaded := kePairCache.LoadOrStore(key, kePair); loaded {
		return t.([]int32)
	}
	if kePairCacheSize.Add(1) > 128 {
		kePairCache.Clear()
		kePairCacheSize.Store(0)
		// The freshly computed table stays valid for this caller; the
		// next constructor for the same model recomputes it.
	}
	return kePair
}

func (r *RBMA) isMarked(id trace.PairID) bool {
	return r.marked[id>>6]&(1<<(uint(id)&63)) != 0
}

func (r *RBMA) setMarked(id trace.PairID) {
	r.marked[id>>6] |= 1 << (uint(id) & 63)
	u, v := r.idx.Endpoints(id)
	r.markedAt[u]++
	r.markedAt[v]++
	r.nMarked++
}

func (r *RBMA) clearMarked(id trace.PairID) {
	r.marked[id>>6] &^= 1 << (uint(id) & 63)
	u, v := r.idx.Endpoints(id)
	r.markedAt[u]--
	r.markedAt[v]--
	r.nMarked--
}

// Serve implements Algorithm.
func (r *RBMA) Serve(u, v int) Step {
	if u > v {
		u, v = v, u
	}
	id := r.idx.ID(u, v)
	return r.serve(id, u, v, r.model.Metric.Dist(u, v))
}

// ServeCompiled implements CompiledServer.
func (r *RBMA) ServeCompiled(req trace.CompiledReq) Step {
	return r.serve(req.ID, int(req.U), int(req.V), int(req.Dist))
}

// serve processes the request for pair id = {u, v} (u < v) at static
// distance dist.
func (r *RBMA) serve(id trace.PairID, u, v, dist int) Step {
	var step Step
	if r.m.HasID(id) {
		step.RoutingCost = 1
	} else {
		step.RoutingCost = float64(dist)
	}

	// Nonuniform → uniform reduction: forward only every k_e-th request.
	r.counter[id]++
	if r.counter[id] < r.kePair[id] {
		return step
	}
	r.counter[id] = 0
	r.ForwardedRequests++

	// Uniform layer: pass the pair to the paging caches at both endpoints.
	if r.bank != nil {
		if o, wasEvicted, _ := r.bank.Access(u, int32(v)); wasEvicted {
			r.handleEviction(r.idx.ID(u, int(o)), &step)
		}
		if o, wasEvicted, _ := r.bank.Access(v, int32(u)); wasEvicted {
			r.handleEviction(r.idx.ID(v, int(o)), &step)
		}
	} else {
		if q, wasEvicted, _ := r.caches[u].Access(uint64(id)); wasEvicted {
			r.handleEviction(trace.PairID(q), &step)
		}
		if q, wasEvicted, _ := r.caches[v].Access(uint64(id)); wasEvicted {
			r.handleEviction(trace.PairID(q), &step)
		}
	}

	// Maintain the invariant: the requested pair is cached at both
	// endpoints now, so it must be(come) a matching edge.
	if r.m.HasID(id) {
		// Lazy mode: a marked edge that is requested again is simply
		// un-marked; it never left the physical matching.
		if r.isMarked(id) {
			r.clearMarked(id)
		}
		return step
	}
	if r.m.Free(u) == 0 {
		step.Removals += r.pruneAt(u)
	}
	if r.m.Free(v) == 0 {
		step.Removals += r.pruneAt(v)
	}
	k := r.idx.Key(id)
	if err := r.m.Add(k); err != nil {
		// Unreachable if the invariants hold; fail loudly rather than
		// silently corrupting the experiment.
		panic(fmt.Sprintf("core: R-BMA invariant violation adding %v: %v", k, err))
	}
	step.Adds++
	return step
}

// handleEviction reacts to pair q falling out of one endpoint's cache:
// matching edges are marked for lazy removal, or removed immediately in
// eager mode. Evictions of non-matching pairs are ignored.
func (r *RBMA) handleEviction(q trace.PairID, step *Step) {
	if !r.m.HasID(q) {
		return
	}
	if r.lazy {
		if !r.isMarked(q) {
			r.setMarked(q)
		}
	} else {
		r.mustRemove(q)
		step.Removals++
	}
}

// pruneAt removes the smallest marked edge incident to node w, returning
// the number of removals performed (1). In lazy mode a saturated node
// always has a marked incident edge when a new edge must be added: the
// unmarked incident edges are all cached at w, and w's cache also holds the
// pair being added. The scan is over w's ≤ b incident edges; the per-node
// marked count rejects inconsistent states up front.
func (r *RBMA) pruneAt(w int) int {
	if r.markedAt[w] == 0 {
		panic(fmt.Sprintf("core: R-BMA lazy-pruning invariant violation at node %d", w))
	}
	// Smallest PairID == smallest PairKey, so runs with the same seed are
	// bit-for-bit reproducible regardless of incidence order.
	victim := trace.NoPair
	for _, q := range r.m.IncidentView(w) {
		qid := r.idx.IDOfKey(q)
		if r.isMarked(qid) && (victim == trace.NoPair || qid < victim) {
			victim = qid
		}
	}
	if victim == trace.NoPair {
		panic(fmt.Sprintf("core: R-BMA marked count desync at node %d", w))
	}
	r.mustRemove(victim)
	return 1
}

func (r *RBMA) mustRemove(q trace.PairID) {
	if err := r.m.Remove(r.idx.Key(q)); err != nil {
		panic(fmt.Sprintf("core: R-BMA removing %v: %v", r.idx.Key(q), err))
	}
	if r.isMarked(q) {
		r.clearMarked(q)
	}
}

// cachedAt reports whether pair id is held by node w's cache.
func (r *RBMA) cachedAt(w int, id trace.PairID) bool {
	if r.bank != nil {
		return r.bank.Contains(w, int32(r.idx.Other(id, w)))
	}
	return r.caches[w].Contains(uint64(id))
}

// CheckCacheInvariant verifies the Theorem 2 invariant: every unmarked
// matching edge is cached at both endpoints, and in eager mode every
// matching edge is cached at both endpoints. Intended for tests.
func (r *RBMA) CheckCacheInvariant() error {
	for _, k := range r.m.Edges() {
		id := r.idx.IDOfKey(k)
		if r.isMarked(id) {
			continue
		}
		u, v := k.Endpoints()
		if !r.cachedAt(u, id) || !r.cachedAt(v, id) {
			return fmt.Errorf("core: unmarked matching edge %v not cached at both endpoints", k)
		}
	}
	if !r.lazy && r.nMarked != 0 {
		return fmt.Errorf("core: eager R-BMA has %d marked edges", r.nMarked)
	}
	return nil
}
