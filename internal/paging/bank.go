package paging

import "obm/internal/stats"

// MarkingBank is n independent randomized-marking caches of capacity k with
// all state in shared flat slabs: position tables, slot arrays, mark
// counts, and one RNG per cache. It exists for R-BMA's uniform layer, which
// runs one cache per rack — constructing n separate Marking values costs
// O(n) allocations per algorithm instance, while a bank costs O(1).
//
// Items are int32 values in a per-cache universe [0, universe). R-BMA uses
// the other-endpoint encoding: rack w's cache stores pair {w, o} as the
// item o, so universe = n. Eviction decisions depend only on slot positions
// and the per-cache RNG stream — never on item values — so a bank cache
// behaves bit-for-bit like a Marking cache seeded with the same value and
// fed the same pair sequence under any injective item encoding.
type MarkingBank struct {
	n, k     int
	universe int
	pos      []int32 // n*universe: pos[c*universe+item], -1 = absent
	slots    []int32 // n*k: cached items; per cache, [0, nMarked) are marked
	lens     []int32 // n
	nMarked  []int32 // n
	rngs     []stats.Rand
}

// NewMarkingBank returns a bank of n empty marking caches of capacity k
// over per-cache item universes [0, universe). Each cache's RNG is seeded
// with one draw from master, in cache order — the same seeding a loop of
// NewMarking(k, master.Uint64()) would perform.
func NewMarkingBank(n, k, universe int, master *stats.Rand) *MarkingBank {
	validateCap(k)
	if n < 1 || universe < 1 {
		panic("paging: NewMarkingBank requires n >= 1 and universe >= 1")
	}
	b := &MarkingBank{
		n:        n,
		k:        k,
		universe: universe,
		pos:      make([]int32, n*universe),
		slots:    make([]int32, n*k),
		lens:     make([]int32, n),
		nMarked:  make([]int32, n),
		rngs:     make([]stats.Rand, n),
	}
	b.Reset(master)
	return b
}

// Len returns the number of items cached at cache c.
func (b *MarkingBank) Len(c int) int { return int(b.lens[c]) }

// Contains reports whether cache c holds item.
func (b *MarkingBank) Contains(c int, item int32) bool {
	return b.pos[c*b.universe+int(item)] >= 0
}

// Access requests item on cache c, with exactly the semantics of
// Marking.Access: a hit marks the item; a miss fetches it (evicting a
// uniformly random unmarked item if the cache is full, opening a new phase
// first when everything is marked) and marks it. It returns the evicted
// item, whether an eviction happened, and whether the access was a miss.
func (b *MarkingBank) Access(c int, item int32) (evictedItem int32, evicted, miss bool) {
	pos := b.pos[c*b.universe : (c+1)*b.universe]
	slots := b.slots[c*b.k : (c+1)*b.k]
	ln := b.lens[c]
	nm := b.nMarked[c]
	if i := pos[item]; i >= 0 {
		// Hit: move the item into the marked prefix.
		if i >= nm {
			slots[i], slots[nm] = slots[nm], slots[i]
			pos[slots[i]] = i
			pos[slots[nm]] = nm
			b.nMarked[c] = nm + 1
		}
		return -1, false, false
	}
	evictedItem = -1
	if int(ln) == b.k {
		if nm == ln {
			// All marked: new phase, clear all marks.
			nm = 0
			b.nMarked[c] = 0
		}
		idx := nm + int32(b.rngs[c].Intn(int(ln-nm)))
		evictedItem = slots[idx]
		evicted = true
		ln--
		slots[idx] = slots[ln]
		pos[slots[idx]] = idx
		pos[evictedItem] = -1
	}
	// Fetch the new item and mark it (swap into the marked prefix).
	slots[ln] = item
	pos[item] = ln
	ln++
	nm = b.nMarked[c]
	slots[ln-1], slots[nm] = slots[nm], slots[ln-1]
	pos[slots[ln-1]] = ln - 1
	pos[slots[nm]] = nm
	b.nMarked[c] = nm + 1
	b.lens[c] = ln
	return evictedItem, evicted, true
}

// Reset empties every cache and reseeds every RNG with one draw from
// master, in cache order.
func (b *MarkingBank) Reset(master *stats.Rand) {
	for i := range b.pos {
		b.pos[i] = -1
	}
	for c := 0; c < b.n; c++ {
		b.lens[c] = 0
		b.nMarked[c] = 0
		b.rngs[c].Seed(master.Uint64())
	}
}
