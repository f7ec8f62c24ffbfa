// Package paging implements the online paging (caching) algorithms that
// R-BMA runs at every node (paper §2.2): a cache of capacity b holds node
// pairs, and the randomized marking algorithm gives the O(log(b/(b-a+1)))
// competitive ratio (Fiat et al. 1991; Young 1991 for the (b,a) analysis).
//
// The package also provides the caches that the ext-policy ablation runs
// in R-BMA's place (LRU, FIFO, random eviction) and Belady's offline MIN,
// the reference that the tests compare every online cache against.
//
// Cost model: paging algorithms pay 1 per fetch (miss); evictions are free
// and bypassing is not allowed. These are the conventions of the paging
// literature the paper reduces to; the R-BMA layer translates them into
// matching reconfiguration costs.
//
// Dense universes: the b-matching reduction draws items from a universe
// known up front (rack pairs, or other-endpoints per rack), so every
// online cache here supports DeclareUniverse, replacing its position map
// with a flat []int32 slot table; MarkingBank goes further and runs n
// marking caches in shared slabs. Both are behavior-preserving: eviction
// decisions are positional and seeded, never map-order-dependent, so a
// given seed produces the same run in every mode — the repository's
// seed-reproducibility contract.
package paging

// Cache is an online paging algorithm over uint64 items with a fixed
// capacity. Implementations are not safe for concurrent use.
type Cache interface {
	// Name identifies the algorithm.
	Name() string
	// Cap returns the capacity (the paper's b).
	Cap() int
	// Len returns the number of cached items.
	Len() int
	// Contains reports whether item is cached.
	Contains(item uint64) bool
	// Access requests item. If it is cached (hit), the algorithm may update
	// internal state only. On a miss the item is fetched, evicting at most
	// one cached item if the cache is full. Access returns the evicted item
	// (evicted == true) and whether the access was a miss.
	Access(item uint64) (evictedItem uint64, evicted, miss bool)
	// Items returns the cached items in unspecified order.
	Items() []uint64
	// Reset empties the cache and clears all algorithm state.
	Reset()
}

// Factory constructs a fresh cache of capacity k. The seed parameterizes
// randomized algorithms; deterministic ones ignore it.
type Factory func(k int, seed uint64) Cache

// Cost replays a request sequence through a fresh cache from factory f and
// returns the number of misses (the paging cost).
func Cost(f Factory, k int, seed uint64, seq []uint64) int {
	c := f(k, seed)
	misses := 0
	for _, it := range seq {
		if _, _, miss := c.Access(it); miss {
			misses++
		}
	}
	return misses
}

func validateCap(k int) {
	if k < 1 {
		panic("paging: cache capacity must be >= 1")
	}
}
