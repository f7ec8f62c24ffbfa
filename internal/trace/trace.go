// Package trace provides the workload substrate: request/trace types,
// synthetic workload generators standing in for the paper's Facebook and
// Microsoft datacenter traces, trace file I/O, and the complexity statistics
// (spatial skew, temporal locality) that explain the algorithms' relative
// performance in the evaluation.
//
// Pairs have three interchangeable representations: (u,v) endpoints, the
// canonical PairKey (u<<32|v with u < v), and the dense PairID — a
// row-major int32 index over the n·(n−1)/2 unordered pairs of a fixed
// n-rack universe. PairID is what lets every per-pair table on the request
// hot path be a flat array; PairIndex translates between the three, and
// Compiled pre-resolves a whole trace to (PairID, u, v, distance) tuples
// so replays do no per-request work. PairID order equals PairKey order, a
// property the algorithms' deterministic tie-breaks rely on.
//
// Traces exist in two regimes. Materialized: Trace holds the raw requests
// and Compiled the pre-resolved tuples, both O(T) in memory. Streaming:
// Stream produces raw requests in caller-sized batches from resumable
// generator state, and Source compiles them chunk by chunk against the
// metric (NewSource), so replaying a 10⁸-request workload holds O(chunk)
// requests. Every generator is a Stream; the materialized constructors are
// Collect over the same stream, and (*Compiled).Source adapts a
// materialized trace back to the streaming interface — one replay path
// subsumes the other, with bit-identical request sequences.
//
// Reproducibility: every generator is parameterized by an explicit seed
// and draws only from stats.Rand, so a (generator, seed) pair denotes one
// exact trace, on any platform and Go version. For streams the contract
// extends along two axes: Reset rewinds to the beginning bit-identically
// (replays across repetitions and b-sweeps reuse one stream), and the
// request sequence is independent of the batch sizes used to read it.
package trace

import (
	"fmt"

	"obm/internal/stats"
)

// Request is one communication request between two racks, identified by
// rack indices. Src != Dst always holds for requests produced by this
// package; the order of Src and Dst is not meaningful (requests are
// unordered pairs in the model).
type Request struct {
	Src, Dst int32
}

// Key returns the canonical unordered-pair key of the request.
func (r Request) Key() PairKey { return MakePairKey(int(r.Src), int(r.Dst)) }

// PairKey is a canonical encoding of an unordered node pair {u, v} with
// u < v: the key is u<<32 | v. It is the item identity used by the paging
// caches inside R-BMA and by all per-pair counters.
type PairKey uint64

// MakePairKey canonicalizes {u, v} into a PairKey. It panics if u == v or
// either is negative.
func MakePairKey(u, v int) PairKey {
	if u == v {
		panic(fmt.Sprintf("trace: pair with identical endpoints %d", u))
	}
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("trace: negative endpoint in pair {%d,%d}", u, v))
	}
	if u > v {
		u, v = v, u
	}
	return PairKey(uint64(u)<<32 | uint64(v))
}

// Endpoints returns the pair's endpoints with u < v.
func (k PairKey) Endpoints() (u, v int) {
	return int(k >> 32), int(k & 0xffffffff)
}

// Other returns the endpoint of the pair different from w. It panics if w is
// not an endpoint.
func (k PairKey) Other(w int) int {
	u, v := k.Endpoints()
	switch w {
	case u:
		return v
	case v:
		return u
	}
	panic(fmt.Sprintf("trace: node %d not an endpoint of pair {%d,%d}", w, u, v))
}

// String renders the pair as "{u,v}".
func (k PairKey) String() string {
	u, v := k.Endpoints()
	return fmt.Sprintf("{%d,%d}", u, v)
}

// MaxRacks bounds the rack count of every trace, scenario and engine
// session in the stack. A cost model is a racks² int32 table, 64 MiB at
// the bound; the paper uses 50 and 100 racks.
const MaxRacks = 4096

// Trace is a finite request sequence over NumRacks racks.
type Trace struct {
	Name     string
	NumRacks int
	Reqs     []Request
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Reqs) }

// Validate checks that every request references racks in range and has
// distinct endpoints.
func (t *Trace) Validate() error {
	if t.NumRacks < 2 {
		return fmt.Errorf("trace %q: NumRacks = %d, need >= 2", t.Name, t.NumRacks)
	}
	for i, r := range t.Reqs {
		if r.Src < 0 || int(r.Src) >= t.NumRacks || r.Dst < 0 || int(r.Dst) >= t.NumRacks {
			return fmt.Errorf("trace %q: request %d = (%d,%d) out of range [0,%d)",
				t.Name, i, r.Src, r.Dst, t.NumRacks)
		}
		if r.Src == r.Dst {
			return fmt.Errorf("trace %q: request %d is a self-loop at %d", t.Name, i, r.Src)
		}
	}
	return nil
}

// Prefix returns a shallow copy of the trace truncated to the first n
// requests (or the whole trace if n exceeds its length).
func (t *Trace) Prefix(n int) *Trace {
	if n > len(t.Reqs) {
		n = len(t.Reqs)
	}
	return &Trace{Name: t.Name, NumRacks: t.NumRacks, Reqs: t.Reqs[:n]}
}

// Shuffled returns a copy of the trace with requests in random order.
// Shuffling destroys temporal structure while preserving the spatial
// distribution — the comparison used by the temporal-complexity statistic.
func (t *Trace) Shuffled(seed uint64) *Trace {
	r := stats.NewRand(seed)
	reqs := append([]Request(nil), t.Reqs...)
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return &Trace{Name: t.Name + "-shuffled", NumRacks: t.NumRacks, Reqs: reqs}
}

// PairCounts returns the request count per pair.
func (t *Trace) PairCounts() map[PairKey]int {
	c := make(map[PairKey]int)
	for _, r := range t.Reqs {
		c[r.Key()]++
	}
	return c
}
