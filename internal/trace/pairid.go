package trace

import (
	"fmt"
	"sync"
)

// PairID is a dense row-major index over the unordered rack pairs of an
// n-rack universe: pair {u, v} with u < v has
//
//	id = u·(2n−u−1)/2 + (v−u−1),
//
// enumerating (0,1), (0,2), …, (0,n−1), (1,2), …, the order in which
// the generators' pair tables index the pair universe. PairID order
// therefore coincides with PairKey order, so
// "smallest pair" tie-breaks are interchangeable between the two
// representations — a property the seed-reproducibility contract of the
// online algorithms relies on.
//
// The dense index is what lets the request hot path (paging caches,
// per-pair counters, matching incidence) run on flat arrays instead of hash
// maps: the pair universe has exactly n·(n−1)/2 elements, known up front.
type PairID int32

// NoPair is the sentinel for "no pair" in PairID-indexed tables.
const NoPair PairID = -1

// NumPairs returns the size of the unordered-pair universe over n nodes.
func NumPairs(n int) int { return n * (n - 1) / 2 }

// PairIndex translates between pair representations for a fixed universe of
// n racks: (u,v) endpoints, canonical PairKey, and dense PairID. The
// endpoint tables make ID→endpoints a single array read, which is what the
// eviction paths of the online algorithms need. A PairIndex is immutable
// and safe for concurrent use.
type PairIndex struct {
	n        int
	epU, epV []int32 // endpoints per PairID, epU[id] < epV[id]
}

// NewPairIndex builds the index for n racks. It panics if n < 2.
func NewPairIndex(n int) *PairIndex {
	if n < 2 {
		panic(fmt.Sprintf("trace: NewPairIndex requires n >= 2, got %d", n))
	}
	np := NumPairs(n)
	x := &PairIndex{n: n, epU: make([]int32, np), epV: make([]int32, np)}
	id := 0
	for u := 0; u < n-1; u++ {
		for v := u + 1; v < n; v++ {
			x.epU[id] = int32(u)
			x.epV[id] = int32(v)
			id++
		}
	}
	return x
}

var pairIndexCache sync.Map // n -> *PairIndex

// SharedPairIndex returns a process-wide shared index for n racks,
// constructing it on first use. Algorithm instances use this so that
// repeated construction (one instance per repetition in the experiment
// harness) does not re-allocate the O(n²) endpoint tables.
func SharedPairIndex(n int) *PairIndex {
	if x, ok := pairIndexCache.Load(n); ok {
		return x.(*PairIndex)
	}
	x, _ := pairIndexCache.LoadOrStore(n, NewPairIndex(n))
	return x.(*PairIndex)
}

// NumPairs returns the universe size n·(n−1)/2.
func (x *PairIndex) NumPairs() int { return len(x.epU) }

// ID canonicalizes {u, v} into its dense PairID. Like MakePairKey it panics
// if u == v or either endpoint is out of range.
func (x *PairIndex) ID(u, v int) PairID {
	if u > v {
		u, v = v, u
	}
	if u == v {
		panic(fmt.Sprintf("trace: pair with identical endpoints %d", u))
	}
	if u < 0 || v >= x.n {
		panic(fmt.Sprintf("trace: pair {%d,%d} out of range [0,%d)", u, v, x.n))
	}
	return PairID(u*(2*x.n-u-1)/2 + (v - u - 1))
}

// IDOfKey converts a canonical PairKey to its dense PairID.
func (x *PairIndex) IDOfKey(k PairKey) PairID {
	u, v := k.Endpoints()
	return PairID(u*(2*x.n-u-1)/2 + (v - u - 1))
}

// Endpoints returns the pair's endpoints with u < v.
func (x *PairIndex) Endpoints(id PairID) (u, v int) {
	return int(x.epU[id]), int(x.epV[id])
}

// Other returns the endpoint of pair id different from w; it is w's cache
// item for the pair in the per-node paging reduction. The result is
// unspecified if w is not an endpoint of id.
func (x *PairIndex) Other(id PairID, w int) int {
	if int(x.epU[id]) == w {
		return int(x.epV[id])
	}
	return int(x.epU[id])
}

// Key returns the canonical PairKey of pair id.
func (x *PairIndex) Key(id PairID) PairKey {
	return PairKey(uint64(x.epU[id])<<32 | uint64(x.epV[id]))
}
