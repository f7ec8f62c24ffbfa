package core

import (
	"fmt"

	"obm/internal/trace"
)

// Pair-universe partitioning: the structure behind the multi-plane ("S
// independent optical switch layers") experiment mode.
//
// R-BMA reduces (b,a)-matching to independent per-node paging instances, so
// the pair universe partitions naturally by node row: pair {u, v} with
// u < v belongs to row u, and row u belongs to shard u mod S. Every shard
// then owns a disjoint set of pairs, and an algorithm instance per shard
// runs with no shared mutable state at all: each request is served by the
// plane that owns its pair, in trace order.
//
// Semantically, a Sharded algorithm is not the single-switch algorithm
// computed faster: it models S independent switch planes, each maintaining
// its own degree-b matching over the pairs it owns (a rack can hold up to b
// edges per plane, S·b in total — the multi-layer reconfigurable fabrics of
// the rotor-switch literature). Shard count is therefore part of an
// experiment's identity: results for S planes differ from results for one,
// and the simulation layer treats Shards as a scenario parameter, never as
// a runtime tuning knob.

// Partition maps the pair universe over n racks onto a fixed number of
// shards by node row: pair {u, v} (u < v) is owned by shard u mod shards.
// The zero value is not valid; use NewPartition.
type Partition struct {
	n, shards int
	idx       *trace.PairIndex
}

// NewPartition builds a node-row partition of the n-rack pair universe into
// the given number of shards. shards must be in [1, n].
func NewPartition(n, shards int) (Partition, error) {
	if n < 2 {
		return Partition{}, fmt.Errorf("core: NewPartition requires n >= 2, got %d", n)
	}
	if shards < 1 || shards > n {
		return Partition{}, fmt.Errorf("core: NewPartition requires 1 <= shards <= %d, got %d", n, shards)
	}
	return Partition{n: n, shards: shards, idx: trace.SharedPairIndex(n)}, nil
}

// OfRow returns the shard owning node row u.
func (p Partition) OfRow(u int) int { return u % p.shards }

// OfReq returns the shard owning a compiled request's pair. Compiled
// requests carry U < V, so ownership is one modulo.
func (p Partition) OfReq(req trace.CompiledReq) int { return int(req.U) % p.shards }

// OfPair returns the shard owning pair id.
func (p Partition) OfPair(id trace.PairID) int {
	u, _ := p.idx.Endpoints(id)
	return u % p.shards
}

// ShardSeed derives the algorithm seed of one shard from the run's base
// seed. Shard 0 keeps the base seed, so a single-shard run is seeded (and
// behaves) exactly like the unsharded algorithm; higher shards are splashed
// across the seed space with a fixed odd multiplier.
func ShardSeed(base uint64, shard int) uint64 {
	if shard == 0 {
		return base
	}
	return base ^ (uint64(shard) * 0x9e3779b97f4a7c15)
}

// ShardStep accumulates the cost deltas of a replay: routing and
// reconfiguration cost folded per step (reconfiguration is
// α·(adds+removals) added per step). It is the accumulator of
// sim.Incremental, which the replay loop's cost meter and the live
// engine both step through.
type ShardStep struct {
	Routing  float64
	Reconfig float64
	Adds     int
	Removals int
}

// Add folds one serve result into the accumulator: one += per cost
// component per step, in request order. It is the accumulation step of
// every replay and of the live engine, which is what makes their
// cumulative cost streams bit-identical. A step that adds and removes
// nothing skips the reconfiguration term: it would add +0.0 to a
// non-negative sum, which leaves the sum's bits unchanged.
func (d *ShardStep) Add(st Step, alpha float64) {
	d.Routing += st.RoutingCost
	if st.Adds|st.Removals != 0 {
		d.Reconfig += st.ReconfigCost(alpha)
	}
	d.Adds += st.Adds
	d.Removals += st.Removals
}

// Sharded runs one independent algorithm instance per partition shard: S
// switch planes, each a full Algorithm over the pairs its shard owns.
// Requests are delegated to the owning plane; costs and matching sizes sum
// across planes, which share no mutable state.
type Sharded struct {
	part Partition
	name string
	b    int
	subs []Algorithm
	fast []CompiledServer // fast[s] non-nil when subs[s] has the dense path
}

// NewSharded builds a sharded algorithm: build is called once per shard and
// must return a fresh instance (typically seeded via ShardSeed). All
// instances must agree on the degree cap.
func NewSharded(part Partition, build func(shard int) (Algorithm, error)) (*Sharded, error) {
	if part.shards < 1 {
		return nil, fmt.Errorf("core: NewSharded requires a valid Partition (use NewPartition)")
	}
	sh := &Sharded{
		part: part,
		subs: make([]Algorithm, part.shards),
		fast: make([]CompiledServer, part.shards),
	}
	for s := 0; s < part.shards; s++ {
		alg, err := build(s)
		if err != nil {
			return nil, fmt.Errorf("core: NewSharded building shard %d: %w", s, err)
		}
		if alg == nil {
			return nil, fmt.Errorf("core: NewSharded: nil algorithm for shard %d", s)
		}
		if s > 0 && alg.B() != sh.b {
			return nil, fmt.Errorf("core: NewSharded: shard %d has b = %d, shard 0 has %d", s, alg.B(), sh.b)
		}
		if s == 0 {
			sh.b = alg.B()
		}
		sh.subs[s] = alg
		sh.fast[s], _ = alg.(CompiledServer)
	}
	sh.name = sh.subs[0].Name()
	if part.shards > 1 {
		sh.name = fmt.Sprintf("%s[shards=%d]", sh.name, part.shards)
	}
	return sh, nil
}

// Partition returns the pair partition the planes are built over.
func (sh *Sharded) Partition() Partition { return sh.part }

// Shard returns plane s's algorithm instance.
func (sh *Sharded) Shard(s int) Algorithm { return sh.subs[s] }

// Name implements Algorithm. A single-shard instance keeps its plane's
// name, so it is indistinguishable from the unsharded algorithm in output.
func (sh *Sharded) Name() string { return sh.name }

// B implements Algorithm: the per-plane degree cap (a rack can hold up to
// B() edges in every plane it appears in).
func (sh *Sharded) B() int { return sh.b }

// Serve implements Algorithm by delegating to the owning plane.
func (sh *Sharded) Serve(u, v int) Step {
	if u > v {
		u, v = v, u
	}
	return sh.subs[sh.part.OfRow(u)].Serve(u, v)
}

// ServeChunk implements CompiledServer: each request goes, in trace
// order, to its owning plane as a one-request chunk (or through the
// plane's Serve when it has no dense path), so the fold runs in trace
// order across planes.
func (sh *Sharded) ServeChunk(reqs []trace.CompiledReq, tot *ShardStep, alpha float64) {
	for i := range reqs {
		s := sh.part.OfReq(reqs[i])
		if cs := sh.fast[s]; cs != nil {
			cs.ServeChunk(reqs[i:i+1], tot, alpha)
		} else {
			tot.Add(sh.subs[s].Serve(int(reqs[i].U), int(reqs[i].V)), alpha)
		}
	}
}

// Matched implements Algorithm: a pair is matched iff its owning plane
// matched it.
func (sh *Sharded) Matched(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	return sh.subs[sh.part.OfRow(u)].Matched(u, v)
}

// MatchingSize implements Algorithm: planes own disjoint pair sets, so the
// total is the plain sum.
func (sh *Sharded) MatchingSize() int {
	total := 0
	for _, alg := range sh.subs {
		total += alg.MatchingSize()
	}
	return total
}

// Reset implements Algorithm.
func (sh *Sharded) Reset() {
	for _, alg := range sh.subs {
		alg.Reset()
	}
}
